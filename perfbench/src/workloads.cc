#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/fs_util.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "common/trace_context.h"
#include "daemon.h"
#include "oracle.h"
#include "serve/client.h"

namespace perfbench {

namespace fs = std::filesystem;
using slicetuner::Result;
using slicetuner::Rng;
using slicetuner::Status;
using slicetuner::json::Value;
using slicetuner::serve::ClientConnection;
using slicetuner::serve::JobSpec;
using slicetuner::serve::Request;
using slicetuner::serve::RequestType;

namespace {

// Daemon starts per run: at least kMinStarts, then more while less than
// kStartBudgetNs has passed, at most kMaxStarts. Set-up time is their
// median; a fresh daemon starts in milliseconds and gets many samples.
constexpr int kMinStarts = 5;
constexpr int kMaxStarts = 50;
constexpr int64_t kStartBudgetNs = 1'000'000'000;
// Closed loops: jobs each client runs before the measured window opens.
constexpr int kWarmJobsPerClient = 2;
// tune-cold: measured jobs per run at most. The daemon keeps every session,
// so a fixed count keeps peak RSS independent of throughput; 1000 puts ten
// samples beyond the p99.
constexpr int kTuneColdJobs = 1000;
// restart-append: sessions in the restored state directory (a run appends
// to each at most once) and the seed of their data worlds.
constexpr int kRestoredSessions = 2400;
constexpr uint64_t kPopulationSeed = 0x5EED;
constexpr int kIoTimeoutMs = 60'000;
constexpr int kShutdownTimeoutMs = 60'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// A curve-based session as tune-cold submits it and restart-append
// populates it: 4 slices x 200 rows, 2 rounds.
JobSpec ModerateSession(const std::string& name, uint64_t seed) {
  JobSpec job;
  job.session = name;
  job.num_slices = 4;
  job.rows_per_slice = 200;
  job.rounds = 2;
  job.budget = 120.0;
  job.method = "moderate";
  job.seed = seed;
  return job;
}

Request SubmitRequest(const JobSpec& job, uint64_t trace_id) {
  Request request;
  request.type = RequestType::kSubmitJob;
  request.job = job;
  if (trace_id != 0) request.trace_id = slicetuner::trace::FormatTraceId(trace_id);
  return request;
}

Request SessionRequest(RequestType type, const std::string& session,
                       uint64_t trace_id) {
  Request request;
  request.type = type;
  request.session = session;
  if (trace_id != 0) request.trace_id = slicetuner::trace::FormatTraceId(trace_id);
  return request;
}

Result<Value> Call(ClientConnection* conn, const Request& request) {
  return conn->Call(request, kIoTimeoutMs);
}

enum class SubmitOutcome { kAccepted, kShed };

// One submit attempt. A shed (ResourceExhausted with a retry hint) is
// returned with the hint; any other rejection is an error.
Result<SubmitOutcome> TrySubmit(ClientConnection* conn, JobRecord* job,
                                int* retry_after_ms) {
  ++job->attempts;
  job->send_ns = NowNs();
  ST_ASSIGN_OR_RETURN(const Value response,
                      Call(conn, SubmitRequest(job->spec, job->trace_id)));
  job->ack_ns = NowNs();
  if (slicetuner::serve::IsOkResponse(response)) return SubmitOutcome::kAccepted;
  const long long retry = response.GetInt("retry_after_ms", 0);
  if (response.GetString("code") == "ResourceExhausted" && retry > 0) {
    ++job->sheds;
    *retry_after_ms = static_cast<int>(retry);
    return SubmitOutcome::kShed;
  }
  return Status::Internal("submit of '" + job->spec.session +
                          "' rejected: " + response.Dump());
}

Status PollSnapshot(ClientConnection* conn, JobRecord* job, bool traced) {
  const int64_t start = NowNs();
  ST_ASSIGN_OR_RETURN(
      job->snapshot,
      Call(conn, SessionRequest(RequestType::kPoll, job->spec.session,
                                job->trace_id)));
  if (traced) job->polls.push_back({start, NowNs()});
  if (!slicetuner::serve::IsOkResponse(job->snapshot)) {
    return Status::Internal("poll of '" + job->spec.session +
                            "' failed: " + job->snapshot.Dump());
  }
  return Status::OK();
}

// Closed-loop job on a connection of its own, dialed before the clock
// starts: submit (retrying sheds), stream to the done frame, then poll the
// closing snapshot for the oracle. A fresh connection per job samples the
// daemon's accept distribution across its workers once per job instead of
// once per run, which would make whole runs fast or slow at random.
Status RunStreamed(int port, JobRecord* job, bool traced) {
  ST_ASSIGN_OR_RETURN(ClientConnection connection,
                      ClientConnection::Connect(port, kIoTimeoutMs));
  ClientConnection* conn = &connection;
  job->due_ns = NowNs();
  for (;;) {
    int retry_ms = 0;
    ST_ASSIGN_OR_RETURN(const SubmitOutcome outcome,
                        TrySubmit(conn, job, &retry_ms));
    if (outcome == SubmitOutcome::kAccepted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
  }
  ST_ASSIGN_OR_RETURN(
      const Value streaming,
      Call(conn, SessionRequest(RequestType::kStream, job->spec.session,
                                job->trace_id)));
  if (!slicetuner::serve::IsOkResponse(streaming)) {
    return Status::Internal("stream of '" + job->spec.session +
                            "' failed: " + streaming.Dump());
  }
  for (;;) {
    ST_ASSIGN_OR_RETURN(const Value frame, conn->ReadJson(kIoTimeoutMs));
    const std::string kind = frame.GetString("frame");
    if (kind == "progress" && job->first_frame_ns == 0) {
      job->first_frame_ns = NowNs();
    } else if (kind == "done") {
      job->done_ns = NowNs();
      job->state = frame.GetString("state");
      job->error = frame.GetString("error");
      if (traced) {
        if (const Value* tree = frame.Find("trace")) job->tree = *tree;
      }
      break;
    }
  }
  return PollSnapshot(conn, job, traced);
}

// Runs `body(client)` on one thread per client and joins them all; the
// first error any thread returns wins.
Status RunClients(int clients, const std::function<Status(int)>& body) {
  std::mutex mu;
  Status first = Status::OK();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Status status = body(c);
      std::lock_guard<std::mutex> lock(mu);
      if (first.ok() && !status.ok()) first = status;
    });
  }
  for (std::thread& thread : threads) thread.join();
  return first;
}

Result<Value> AdminCall(ClientConnection* conn, RequestType type) {
  Request request;
  request.type = type;
  ST_ASSIGN_OR_RETURN(Value response, Call(conn, request));
  if (!slicetuner::serve::IsOkResponse(response)) {
    return Status::Internal(std::string(slicetuner::serve::RequestTypeName(type)) +
                            " failed: " + response.Dump());
  }
  return response;
}

// Admin call on a connection of its own, made while no client connection
// is open.
Result<Value> AdminCall(int port, RequestType type) {
  ST_ASSIGN_OR_RETURN(ClientConnection conn,
                      ClientConnection::Connect(port, kIoTimeoutMs));
  return AdminCall(&conn, type);
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Status::Internal("copy " + from + " -> " + to + ": " + ec.message());
  return Status::OK();
}

std::vector<std::string> DaemonArgs(const std::string& state_dir) {
  return {"--port=0", "--state-dir=" + state_dir};
}

// ---------------------------------------------------------------------------
// Oracles over the records of a run.
// ---------------------------------------------------------------------------

// Groups job indices by session, each group in submission order.
std::vector<std::vector<size_t>> BySession(const std::vector<JobRecord>& jobs) {
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < jobs.size(); ++i) groups[jobs[i].spec.session].push_back(i);
  std::vector<std::vector<size_t>> out;
  for (auto& [name, indices] : groups) {
    std::sort(indices.begin(), indices.end(), [&](size_t a, size_t b) {
      return jobs[a].send_ns < jobs[b].send_ns;
    });
    out.push_back(std::move(indices));
  }
  return out;
}

// Checks one session's jobs against per-job oracle snapshots; returns the
// failure line of every job that does not match.
void CheckSession(const std::vector<JobRecord>& jobs,
                  const std::vector<size_t>& group,
                  const std::vector<Value>& oracle,
                  std::vector<std::string>* failures) {
  for (size_t k = 0; k < group.size(); ++k) {
    const JobRecord& job = jobs[group[k]];
    std::string diff;
    if (job.state != "done") {
      diff = "state " + job.state + (job.error.empty() ? "" : ": " + job.error);
    } else if (k >= oracle.size()) {
      diff = "no oracle snapshot";
    } else {
      diff = CompareClosing(job.snapshot, oracle[k]);
    }
    if (!diff.empty()) {
      failures->push_back(job.spec.session + " job " + std::to_string(k) + ": " + diff);
    }
  }
}

void CheckFresh(const std::vector<JobRecord>& jobs,
                std::vector<std::string>* failures) {
  const std::vector<std::vector<size_t>> groups = BySession(jobs);
  std::vector<std::vector<std::string>> found(groups.size());
  slicetuner::ParallelFor(groups.size(), [&](size_t g) {
    std::vector<JobSpec> specs;
    for (const size_t i : groups[g]) specs.push_back(jobs[i].spec);
    Result<std::vector<Value>> replay = ReplayFresh(specs);
    if (!replay.ok()) {
      found[g].push_back(specs[0].session + ": replay failed: " +
                         replay.status().ToString());
      return;
    }
    CheckSession(jobs, groups[g], *replay, &found[g]);
  });
  for (auto& lines : found) {
    for (auto& line : lines) failures->push_back(std::move(line));
  }
}

void RecordRecovery(const Recovery& recovery, RunResult* result) {
  result->store_open_ms = recovery.open_ms;
  result->store_restore_ms = recovery.restore_ms;
  result->records_replayed =
      static_cast<double>(recovery.report.journal_records_applied);
  result->warm_slices = static_cast<double>(recovery.report.warm_slices);
  result->slices = static_cast<double>(recovery.slices);
}

// restart-append oracle: recover a copy of the pre-restart directory
// in-process and replay every session's appends in submission order.
Status CheckRestored(const std::string& prepared_dir, const std::string& copy_dir,
                     RunResult* result) {
  ST_RETURN_NOT_OK(CopyDir(prepared_dir, copy_dir));
  ST_ASSIGN_OR_RETURN(Recovery recovery, Recover(copy_dir));
  RecordRecovery(recovery, result);
  const std::vector<JobRecord>& jobs = result->jobs;
  const std::vector<std::vector<size_t>> groups = BySession(jobs);
  std::vector<std::vector<std::string>> found(groups.size());
  slicetuner::ParallelFor(groups.size(), [&](size_t g) {
    std::vector<Value> oracle;
    for (const size_t i : groups[g]) {
      Result<Value> snapshot = RunAppend(&recovery, jobs[i].spec);
      if (!snapshot.ok()) {
        found[g].push_back(jobs[i].spec.session + ": oracle append failed: " +
                           snapshot.status().ToString());
        return;
      }
      oracle.push_back(std::move(*snapshot));
    }
    CheckSession(jobs, groups[g], oracle, &found[g]);
  });
  for (auto& lines : found) {
    for (auto& line : lines) result->failures.push_back(std::move(line));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Closed loops: tune-cold and restart-append.
// ---------------------------------------------------------------------------

// Runs a warm-up of kWarmJobsPerClient jobs per client, then the measured
// window: clients start jobs until `seconds` have passed or `max_jobs`
// measured jobs have started. `job_spec(k)` is the run's k-th job.
Status MeasureClosed(const Options& options, int port, bool traced, int max_jobs,
                     const std::function<JobSpec(int k)>& job_spec,
                     RunResult* result) {
  std::vector<std::vector<JobRecord>> per_client(static_cast<size_t>(options.clients));
  std::atomic<int> next{0};
  auto run_one = [&](int c, int k, bool measured) {
    JobRecord job;
    job.spec = job_spec(k);
    job.measured = measured;
    if (traced) job.trace_id = Mix(options.seed, static_cast<uint64_t>(k)) | 1;
    const Status status = RunStreamed(port, &job, traced);
    per_client[static_cast<size_t>(c)].push_back(std::move(job));
    return status;
  };
  ST_RETURN_NOT_OK(RunClients(options.clients, [&](int c) {
    for (int n = 0; n < kWarmJobsPerClient; ++n) {
      ST_RETURN_NOT_OK(run_one(c, next++, /*measured=*/false));
    }
    return Status::OK();
  }));
  const int last = next + max_jobs;
  result->window_start_ns = NowNs();
  const int64_t window_end =
      result->window_start_ns + static_cast<int64_t>(options.seconds * 1e9);
  const Status status = RunClients(options.clients, [&](int c) {
    while (NowNs() < window_end) {
      const int k = next++;
      if (k >= last) break;
      ST_RETURN_NOT_OK(run_one(c, k, /*measured=*/true));
    }
    return Status::OK();
  });
  for (auto& records : per_client) {
    for (auto& job : records) result->jobs.push_back(std::move(job));
  }
  return status;
}

// The k-th append of the run: restored sessions in a seeded order, each at
// most once; slice and row count seeded per append.
JobSpec AppendJob(uint64_t seed, const std::vector<std::string>& order, int k) {
  Rng rng(Mix(seed, static_cast<uint64_t>(k) + 0xA99u));
  JobSpec job;
  job.session = order[static_cast<size_t>(k)];
  job.append_rows = rng.UniformInt(int64_t{8}, int64_t{64});
  job.append_slice = static_cast<int>(rng.UniformInt(int64_t{0}, int64_t{3}));
  job.rounds = 1;
  job.budget = 24.0;
  job.method = "moderate";
  return job;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "tune-cold" || name == "restart-append";
}

Result<Prepared> Prepare(const Options& options) {
  Prepared prepared;
  if (options.workload != "restart-append") return prepared;
  for (int i = 0; i < kRestoredSessions; ++i) {
    prepared.sessions.push_back("r" + std::to_string(i));
  }
  // The population is a fixture: it does not depend on --seed (the appends
  // do), so it is built once and reused by every run. Its key covers the
  // daemon binary and every parameter of the fixture, so a change to either
  // builds a new one.
  const int snapshot_after = kRestoredSessions * 3 / 4;
  ST_ASSIGN_OR_RETURN(const std::string binary, slicetuner::ReadFileToString(options.serve_bin));
  const std::string fixture =
      std::to_string(kRestoredSessions) + " " + std::to_string(snapshot_after) + " " +
      ModerateSession(prepared.sessions[0], Mix(kPopulationSeed, 0)).ToJson().Dump();
  char key[17];
  std::snprintf(key, sizeof(key), "%016llx",
                static_cast<unsigned long long>(Mix(std::hash<std::string>{}(binary),
                                                    std::hash<std::string>{}(fixture))));
  prepared.state_dir = options.work_dir + "/population-" + key;
  if (fs::is_directory(prepared.state_dir)) return prepared;
  // Populations of other binaries or fixtures are never used again.
  std::error_code ignored;
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(options.work_dir, ignored)) {
    if (entry.path().filename().string().rfind("population-", 0) == 0) {
      stale.push_back(entry.path());
    }
  }
  for (const fs::path& path : stale) fs::remove_all(path, ignored);

  // Populate the way a user's daemon fills a state directory: closed-loop
  // creates, an admin `snapshot` after the first three quarters, every job
  // done and synced, then SIGKILL. Restoring it, those sessions come back
  // from the snapshot and the last quarter from the journal tail. (With a
  // half-and-half split the append latencies are bimodal with equal
  // weights, and their median jumps between the two modes from run to
  // run.)
  const std::string building = prepared.state_dir + ".tmp";
  ST_ASSIGN_OR_RETURN(
      std::unique_ptr<Daemon> daemon,
      Daemon::Spawn(options.serve_bin, DaemonArgs(building),
                    options.work_dir + "/populate.log", options.work_dir));
  std::atomic<int> cursor{0};
  auto populate = [&](int begin, int end) {
    cursor = begin;
    return RunClients(options.clients, [&](int) {
      for (int i = cursor++; i < end; i = cursor++) {
        JobRecord job;
        job.spec = ModerateSession(prepared.sessions[static_cast<size_t>(i)],
                                   Mix(kPopulationSeed, static_cast<uint64_t>(i)));
        ST_RETURN_NOT_OK(RunStreamed(daemon->port(), &job, false));
        if (job.state != "done") {
          return Status::Internal("populate job " + job.spec.session + " ended " +
                                  job.state + ": " + job.error);
        }
      }
      return Status::OK();
    });
  };
  ST_RETURN_NOT_OK(populate(0, snapshot_after));
  ST_RETURN_NOT_OK(AdminCall(daemon->port(), RequestType::kSnapshot).status());
  ST_RETURN_NOT_OK(populate(snapshot_after, kRestoredSessions));
  // A job's group commit runs after its done frame; the session manager
  // counts it completed only once that fsync returned.
  for (;;) {
    ST_ASSIGN_OR_RETURN(const Value stats, AdminCall(daemon->port(), RequestType::kStats));
    const Value* sessions = stats.Find("sessions");
    if (sessions != nullptr && sessions->GetInt("completed", 0) >= kRestoredSessions) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  daemon->Kill();
  std::error_code ec;
  fs::rename(building, prepared.state_dir, ec);
  if (ec) return Status::Internal("rename " + building + ": " + ec.message());
  return prepared;
}

Result<RunResult> Run(const Options& options, const Prepared& prepared,
                      bool traced, const std::string& tag) {
  RunResult result;
  const std::string run_dir = options.work_dir + "/" + tag;
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  if (!fs::create_directories(run_dir, ec)) {
    return Status::Internal("create " + run_dir + ": " + ec.message());
  }
  const bool restored = options.workload == "restart-append";

  std::unique_ptr<Daemon> daemon;
  std::string state_dir;
  const int64_t starts_begin = NowNs();
  for (int i = 0; i < kMinStarts ||
                  (i < kMaxStarts && NowNs() - starts_begin < kStartBudgetNs);
       ++i) {
    if (daemon != nullptr) daemon->Kill();
    state_dir = run_dir + "/state-" + std::to_string(i);
    if (restored) ST_RETURN_NOT_OK(CopyDir(prepared.state_dir, state_dir));
    ST_ASSIGN_OR_RETURN(daemon,
                        Daemon::Spawn(options.serve_bin, DaemonArgs(state_dir),
                                      options.work_dir + "/" + tag + ".daemon.log",
                                      run_dir));
    result.setups.push_back(daemon->setup_s());
  }
  const int port = daemon->port();
  if (traced) {
    ST_ASSIGN_OR_RETURN(result.metrics_before, AdminCall(port, RequestType::kMetrics));
  }

  Status load;
  if (options.workload == "tune-cold") {
    load = MeasureClosed(options, port, traced, kTuneColdJobs, [&](int k) {
      return ModerateSession("t" + std::to_string(k), Mix(options.seed, static_cast<uint64_t>(k)));
    }, &result);
  } else {
    std::vector<std::string> order = prepared.sessions;
    Rng shuffle(Mix(options.seed, 0x5u));
    std::shuffle(order.begin(), order.end(), shuffle);
    load = MeasureClosed(options, port, traced,
                         kRestoredSessions - kWarmJobsPerClient * options.clients,
                         [&](int k) { return AppendJob(options.seed, order, k); }, &result);
  }
  ST_RETURN_NOT_OK(load);

  if (traced) {
    ST_ASSIGN_OR_RETURN(result.metrics_after, AdminCall(port, RequestType::kMetrics));
  }
  result.peak_rss_mb = daemon->PeakRssMb();
  ST_RETURN_NOT_OK(daemon->Shutdown(kShutdownTimeoutMs));

  if (restored) {
    ST_RETURN_NOT_OK(CheckRestored(prepared.state_dir, run_dir + "/oracle", &result));
  } else {
    CheckFresh(result.jobs, &result.failures);
    if (traced) {
      ST_ASSIGN_OR_RETURN(Recovery recovery, Recover(state_dir));
      RecordRecovery(recovery, &result);
    }
  }
  fs::remove_all(run_dir, ec);
  return result;
}

}  // namespace perfbench
