// DaemonProcess: fork/exec lifecycle management of a real slicetuner_serve
// process for the load harness. Spawns the daemon with stdout+stderr
// redirected to a log file, tails that log for the "listening on
// 127.0.0.1:<port>" banner to learn the (usually ephemeral) port, and can
// SIGKILL + respawn it mid-run against the same --state-dir — the
// kill-and-restart chaos mode the warm-restart guarantee is exercised
// under. Thread-safe: the chaos thread restarts the daemon while driver
// threads read port().

#ifndef SLICETUNER_LOAD_DAEMON_H_
#define SLICETUNER_LOAD_DAEMON_H_

#include <sys/types.h>

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace slicetuner {
namespace load {

struct DaemonOptions {
  /// Path to the slicetuner_serve binary.
  std::string serve_bin;
  /// Extra argv entries after the binary (e.g. "--state-dir=...").
  std::vector<std::string> args;
  /// File stdout+stderr are appended to (created if missing).
  std::string log_path = "daemon.log";
  /// How long Start() waits for the listening banner.
  int start_timeout_ms = 30000;
};

class DaemonProcess {
 public:
  explicit DaemonProcess(DaemonOptions options);
  ~DaemonProcess();

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns the daemon and waits for its listening banner. Callable again
  /// after Kill()/Shutdown() — that is a restart.
  Status Start();

  /// SIGKILL + reap. No-op when not running.
  void Kill();

  /// Graceful stop: SIGTERM-free — sends nothing itself; callers issue the
  /// protocol `shutdown` verb first, then Reap() waits for exit. Escalates
  /// to SIGKILL after `timeout_ms`. Returns true on clean (zero) exit.
  bool Reap(int timeout_ms);

  bool Running();

  /// Port from the most recent listening banner (0 before first Start).
  int port() const { return port_.load(std::memory_order_acquire); }
  pid_t pid() const { return pid_; }
  int restarts() const { return restarts_; }

 private:
  /// Scans the log file from offset_ for the listening banner; advances
  /// offset_ past consumed content.
  Result<int> WaitForBanner();

  DaemonOptions options_;
  std::mutex mu_;  // serializes Start/Kill/Reap
  pid_t pid_ = -1;
  std::atomic<int> port_{0};
  size_t offset_ = 0;  // log-file tail position across restarts
  int restarts_ = -1;  // first Start() brings it to 0
};

}  // namespace load
}  // namespace slicetuner

#endif  // SLICETUNER_LOAD_DAEMON_H_
