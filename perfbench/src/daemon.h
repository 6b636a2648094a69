// A slicetuner_serve child process driven from outside, as a user runs it.
//
// Set-up time is spawn until the `listening` banner. The banner is read
// from a pipe on the daemon's stdout, so the measurement is exact rather
// than quantized by a log-file poll.

#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

class Daemon {
 public:
  /// Spawns `bin` with `args`, stderr appended to `log_path` and
  /// SLICETUNER_RESULTS_DIR set to `results_dir`, and waits for the banner.
  /// Call from the thread that outlives the daemon: the child is killed
  /// when that thread exits.
  static slicetuner::Result<std::unique_ptr<Daemon>> Spawn(
      const std::string& bin, const std::vector<std::string>& args,
      const std::string& log_path, const std::string& results_dir);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  /// Spawn until the banner line was read, in seconds.
  double setup_s() const { return setup_s_; }
  /// Peak resident set (VmHWM) so far, in MiB; NaN when unreadable.
  double PeakRssMb() const;

  /// Sends the `shutdown` verb and waits for a zero exit.
  slicetuner::Status Shutdown(int timeout_ms);
  /// SIGKILL and reap; no-op once the process is gone.
  void Kill();

 private:
  Daemon() = default;
  /// Reads the stdout pipe to EOF, then reaps; false on timeout.
  bool WaitExit(int timeout_ms, int* status);

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
