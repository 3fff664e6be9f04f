// Direct I/O syscalls outside the wire helpers: every one of these can
// return short counts or EINTR and silently drop bytes.

extern "C" {
long read(int fd, void* buf, unsigned long len);
long write(int fd, const void* buf, unsigned long len);
long recv(int fd, void* buf, unsigned long len, int flags);
long send(int fd, const void* buf, unsigned long len, int flags);
struct iovec;
long writev(int fd, const struct iovec* iov, int count);
long pread(int fd, void* buf, unsigned long len, long off);
}

void raw_io(int fd, char* buf) {
  read(fd, buf, 16);
  write(fd, buf, 16);
  recv(fd, buf, 16, 0);
  send(fd, buf, 16, 0);
  writev(fd, nullptr, 0);
  pread(fd, buf, 16, 0);
}

bool naive_retry_loop(int fd, const char* data, unsigned long len) {
  unsigned long sent = 0;
  while (sent < len) {
    const long n = write(fd, data + sent, len - sent);
    if (n <= 0) {
      return false;  // EINTR handled nowhere
    }
    sent += static_cast<unsigned long>(n);
  }
  return true;
}
