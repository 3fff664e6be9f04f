// Raw descriptor ownership: close() calls and fd-returning calls whose
// result lands in a plain int, where any early return leaks.

extern "C" {
int socket(int domain, int type, int protocol);
int open(const char* path, int flags, ...);
int accept(int fd, void* addr, unsigned* len);
int dup(int fd);
int close(int fd);
}

bool configure(int fd);

int leaky_socket() {
  const int fd = socket(1, 1, 0);
  if (!configure(fd)) {
    return -1;  // descriptor leaks here
  }
  close(fd);
  return 0;
}

void leaky_open(const char* path) {
  int fd = open(path, 0);
  close(fd);
}

void accept_loop(int listener) {
  for (;;) {
    const int conn = accept(listener, nullptr, nullptr);
    if (conn < 0) {
      break;
    }
    close(conn);
  }
}

int duplicated(int fd) {
  const int copy = dup(fd);
  return copy;
}
