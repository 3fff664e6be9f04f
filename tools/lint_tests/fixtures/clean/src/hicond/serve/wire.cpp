// Stand-in for the real serve/wire.cpp: the one translation unit (with
// wire.hpp and util/unique_fd.hpp) where raw I/O syscalls are the point.
// syscall-discipline and fd-ownership must stay quiet here by path exemption.
#define HICOND_CHECK(x) ((void)(x))

long transfer(int fd, char* buf, unsigned long len) {
  HICOND_CHECK(fd >= 0);
  const long got = read(fd, buf, len);
  if (got <= 0) {
    return got;
  }
  (void)::write(fd, buf, static_cast<unsigned long>(got));
  close(fd);
  return got;
}
