#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "serve/client.h"

extern char** environ;

namespace perfbench {

using slicetuner::Result;
using slicetuner::Status;

namespace {

constexpr char kBanner[] = "slicetuner_serve listening on 127.0.0.1:";

int64_t MillisLeft(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             deadline - std::chrono::steady_clock::now())
      .count();
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Spawn(
    const std::string& bin, const std::vector<std::string>& args,
    const std::string& log_path, const std::string& results_dir) {
  // Everything the child needs is built before fork: between fork and exec
  // only async-signal-safe calls are allowed.
  std::vector<std::string> argv_store = {bin};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SLICETUNER_RESULTS_DIR=", 23) != 0)
      env_store.push_back(*e);
  }
  env_store.push_back("SLICETUNER_RESULTS_DIR=" + results_dir);
  std::vector<char*> envp;
  for (std::string& entry : env_store) envp.push_back(entry.data());
  envp.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::Internal("open " + log_path);
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    ::close(log_fd);
    return Status::Internal("pipe2 failed");
  }

  std::unique_ptr<Daemon> daemon(new Daemon());
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // The daemon must not outlive the benchmark, however it exits.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(pipe_fds[1]);
  daemon->pid_ = pid;
  daemon->stdout_fd_ = pipe_fds[0];

  std::string out;
  const auto deadline = start + std::chrono::seconds(120);
  for (;;) {
    const size_t at = out.find(kBanner);
    const size_t eol =
        at == std::string::npos ? at : out.find('\n', at + sizeof(kBanner) - 1);
    if (eol != std::string::npos) {
      daemon->setup_s_ = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      daemon->port_ = std::atoi(out.c_str() + at + sizeof(kBanner) - 1);
      if (daemon->port_ <= 0) return Status::Internal("bad banner: " + out);
      return daemon;
    }
    const int64_t left = MillisLeft(deadline);
    if (left <= 0) return Status::Internal("no listening banner from " + bin);
    pollfd pfd{daemon->stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno != EINTR) return Status::Internal("poll failed");
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(daemon->stdout_fd_, buf, sizeof(buf));
    if (n == 0) {
      return Status::Internal("daemon exited before listening (see " +
                              log_path + ")");
    }
    if (n > 0) out.append(buf, static_cast<size_t>(n));
  }
}

Daemon::~Daemon() { Kill(); }

double Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool Daemon::WaitExit(int timeout_ms, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // Drain stdout so the daemon never blocks writing its exit lines.
  while (stdout_fd_ >= 0) {
    const int64_t left = MillisLeft(deadline);
    if (left <= 0) return false;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }
  while (MillisLeft(deadline) > 0) {
    const pid_t r = ::waitpid(pid_, status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

Status Daemon::Shutdown(int timeout_ms) {
  if (pid_ < 0) return Status::FailedPrecondition("daemon not running");
  {
    ST_ASSIGN_OR_RETURN(slicetuner::serve::ClientConnection conn,
                        slicetuner::serve::ClientConnection::Connect(port_));
    slicetuner::serve::Request request;
    request.type = slicetuner::serve::RequestType::kShutdown;
    ST_ASSIGN_OR_RETURN(const slicetuner::json::Value response,
                        conn.Call(request));
    if (!slicetuner::serve::IsOkResponse(response)) {
      return Status::Internal("shutdown refused: " + response.Dump());
    }
  }
  int status = 0;
  if (!WaitExit(timeout_ms, &status)) {
    Kill();
    return Status::Internal("daemon did not exit after shutdown");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("daemon exited uncleanly after shutdown");
  }
  return Status::OK();
}

void Daemon::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench
