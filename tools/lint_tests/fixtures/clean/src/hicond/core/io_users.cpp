// Code that must NOT trip syscall-discipline / fd-ownership: member functions
// that happen to share a syscall's name, the wire facade, a member call
// split across a backslash continuation (the no-space join keeps the `.`
// attached), and the pragma escape hatch.  Lint fixtures are never
// compiled, so the members stay undeclared.
#define HICOND_CHECK(x) ((void)(x))

struct Stream;

namespace wire {
bool write_all(int fd, const void* data, unsigned long len);
bool write_line(int fd, const char* body);
}  // namespace wire

void members_and_facade(Stream& s, int fd, char* buf) {
  HICOND_CHECK(fd >= 0);
  s.write(buf, 8);
  s.read(buf, 8);
  s.close();
  (void)wire::write_all(fd, buf, 8);
  (void)wire::write_line(fd, buf);
}

void split_member_is_still_a_member(Stream& s, char* buf) {
  s.\
write(buf, 8);
}

void suppressed(int fd, char* buf) {
  // hicond-tidy: allow(syscall-discipline)
  write(fd, buf, 8);
  // hicond-tidy: allow(fd-ownership)
  close(fd);
}
