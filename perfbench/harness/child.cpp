#include "harness/child.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <vector>

namespace perfbench {

bool run_in_child(void* out, std::size_t size, double timeout_s,
                  const std::function<void(void*)>& fn, std::string& why) {
  int fds[2];
  if (::pipe(fds) != 0) {
    why = "pipe() failed";
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    why = "fork() failed";
    return false;
  }
  if (pid == 0) {
    // The child must never return into the parent's code: every way out is
    // _exit, which also skips the destructors and atexit handlers the
    // parent owns.
    ::close(fds[0]);
    try {
      std::vector<char> buffer(size);
      fn(buffer.data());
      const ssize_t n = ::write(fds[1], buffer.data(), size);
      ::_exit(n == static_cast<ssize_t>(size) ? 0 : 1);
    } catch (...) {
      ::_exit(1);
    }
  }
  ::close(fds[1]);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::size_t got = 0;
  bool killed = false;
  while (got < size) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd p{fds[0], POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0) {
      ::kill(pid, SIGKILL);
      killed = true;
      break;
    }
    const ssize_t n =
        ::read(fds[0], static_cast<char*>(out) + got, size - got);
    if (n <= 0) break;  // the child died before reporting
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got == size && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return true;
  }
  if (killed) {
    why = "child process killed: no report within " +
          std::to_string(timeout_s) + " s";
  } else if (WIFSIGNALED(status)) {
    why = std::string("child process died: ") + ::strsignal(WTERMSIG(status));
  } else {
    why = "child process exited without a report";
  }
  return false;
}

}  // namespace perfbench
