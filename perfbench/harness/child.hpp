// Run a piece of the benchmark in a forked child process.
//
// Used where the program must start from a fresh process image: each cold
// stand-up (so none inherits another's warm allocator, threads or sockets)
// and each job of the traced run's UdpJob probe (so a job that aborts its
// process or hangs costs one failed operation, not the run).  Fork only from
// a single-threaded parent.
#pragma once

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>

namespace perfbench {

/// Run `fn` in a forked child; it writes `size` bytes to the buffer it is
/// given, which are copied back into `out` through a pipe.  False, with
/// `why` set, when the child died or was killed after `timeout_s`.
bool run_in_child(void* out, std::size_t size, double timeout_s,
                  const std::function<void(void*)>& fn, std::string& why);

template <typename T>
std::optional<T> in_child(double timeout_s, const std::function<T()>& fn,
                          std::string& why) {
  static_assert(std::is_trivially_copyable_v<T>);
  T result{};
  const bool ok = run_in_child(
      &result, sizeof result, timeout_s,
      [&](void* buffer) {
        const T r = fn();
        std::memcpy(buffer, &r, sizeof r);
      },
      why);
  if (!ok) return std::nullopt;
  return result;
}

}  // namespace perfbench
