// Child processes of the benchmark: the real chameleon_server and
// chameleon_router binaries, spawned with fork/exec so each child dies with
// the benchmark process (PR_SET_PDEATHSIG) even when that is killed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "report.hpp"

namespace chameleon::bench {

class Child {
 public:
  /// Start `exe` with `args`; stdout and stderr go to `log`. Call from the
  /// main thread: the death signal is tied to the spawning thread.
  Child(const std::string& exe, const std::vector<std::string>& args,
        const std::filesystem::path& log);
  /// Kills and reaps a child that stop() did not end.
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  pid_t pid() const { return pid_; }
  /// False once the child has exited (reaps it).
  bool running();
  /// SIGTERM (graceful drain), SIGKILL after `grace`; reaps the child.
  /// Returns its exit code, or 128 + signal when a signal ended it.
  int stop(Nanos grace);
  /// Peak resident set (VmHWM) so far, in MiB; 0 once the child is gone.
  double peak_rss_mb() const;
  /// Last bytes of the child's log, for error messages.
  std::string log_tail() const;

 private:
  int reap(bool block);

  pid_t pid_ = -1;
  int exit_code_ = -1;
  std::filesystem::path log_;
};

/// Wait until `port_file` holds a complete port line written by `child`.
/// Throws when the child exits first or `timeout` lapses.
std::uint16_t await_port(const std::filesystem::path& port_file, Child& child,
                         Nanos timeout);

/// Poll the HEALTH op on 127.0.0.1:`port` every millisecond until the
/// process reports "serving":true. Throws when `timeout` lapses.
void await_serving(std::uint16_t port, Nanos timeout);

}  // namespace chameleon::bench
