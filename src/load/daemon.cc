#include "load/daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/status.h"

namespace slicetuner {
namespace load {

namespace {
constexpr char kBanner[] = "slicetuner_serve listening on 127.0.0.1:";
}  // namespace

DaemonProcess::DaemonProcess(DaemonOptions options)
    : options_(std::move(options)) {}

DaemonProcess::~DaemonProcess() { Kill(); }

Status DaemonProcess::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ > 0) return Status::FailedPrecondition("daemon already running");

  int log_fd = ::open(options_.log_path.c_str(),
                      O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0)
    return Status::Internal("open " + options_.log_path + ": " +
                            std::strerror(errno));
  // Scan for the banner only past what the log already holds: a stale
  // banner from an earlier generation (or an earlier run against the same
  // log file) would otherwise parse into a port nobody is listening on.
  struct stat st;
  offset_ = (::fstat(log_fd, &st) == 0) ? static_cast<size_t>(st.st_size) : 0;

  std::vector<std::string> argv_store;
  argv_store.push_back(options_.serve_bin);
  for (const auto& a : options_.args) argv_store.push_back(a);
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout/stderr -> log file, stdin -> /dev/null, then exec.
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::close(devnull);
    }
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  Result<int> port = WaitForBanner();
  if (!port.ok()) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return port.status();
  }
  port_.store(*port, std::memory_order_release);
  ++restarts_;
  return Status::OK();
}

Result<int> DaemonProcess::WaitForBanner() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.start_timeout_ms);
  std::string pending;
  while (true) {
    // Read whatever the daemon appended since our last offset.
    int fd = ::open(options_.log_path.c_str(), O_RDONLY);
    if (fd >= 0) {
      if (::lseek(fd, static_cast<off_t>(offset_), SEEK_SET) >= 0) {
        char buf[4096];
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
          pending.append(buf, static_cast<size_t>(n));
          offset_ += static_cast<size_t>(n);
        }
      }
      ::close(fd);
    }
    size_t pos = pending.find(kBanner);
    if (pos != std::string::npos) {
      size_t end = pending.find('\n', pos);
      if (end != std::string::npos) {
        std::string port_str =
            pending.substr(pos + sizeof(kBanner) - 1,
                           end - pos - (sizeof(kBanner) - 1));
        int port = std::atoi(port_str.c_str());
        if (port > 0) return port;
        return Status::Internal("unparseable banner port: " + port_str);
      }
    }
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("daemon exited before listening (see " +
                              options_.log_path + ")");
    }
    if (std::chrono::steady_clock::now() > deadline)
      return Status::Internal("timed out waiting for daemon banner");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void DaemonProcess::Kill() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

bool DaemonProcess::Reap(int timeout_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ <= 0) return true;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int status = 0;
  while (true) {
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0) {  // already reaped elsewhere
      pid_ = -1;
      return false;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool DaemonProcess::Running() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pid_ <= 0) return false;
  int status = 0;
  pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_) {
    pid_ = -1;
    return false;
  }
  return r == 0;
}

}  // namespace load
}  // namespace slicetuner
