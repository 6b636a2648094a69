// Server smoke test: spawns the real slicetuner_serve binary on an
// ephemeral port and drives it with the real slicetuner_client CLI —
// submit a job, stream its progress (>= 2 frames), cancel a second job,
// check stats, and shut down gracefully, asserting clean exits throughout.
// This is the end-to-end contract of the serving subsystem exercised the
// way an operator would.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"

namespace slicetuner {
namespace {

#ifndef SLICETUNER_SERVE_BIN
#define SLICETUNER_SERVE_BIN "./slicetuner_serve"
#endif
#ifndef SLICETUNER_CLIENT_BIN
#define SLICETUNER_CLIENT_BIN "./slicetuner_client"
#endif
#ifndef SLICETUNER_TOP_BIN
#define SLICETUNER_TOP_BIN "./slicetuner_top"
#endif

struct CommandResult {
  int exit_code = -1;
  std::vector<std::string> lines;
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::string current;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    current += buf;
    size_t newline;
    while ((newline = current.find('\n')) != std::string::npos) {
      result.lines.push_back(current.substr(0, newline));
      current.erase(0, newline + 1);
    }
  }
  if (!current.empty()) result.lines.push_back(current);
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// The last line of a client invocation that parses as JSON.
json::Value LastJson(const CommandResult& result) {
  for (auto it = result.lines.rbegin(); it != result.lines.rend(); ++it) {
    const Result<json::Value> parsed = json::Value::Parse(*it);
    if (parsed.ok()) return *parsed;
  }
  return json::Value();
}

std::string JoinLines(const CommandResult& result) {
  std::string all;
  for (const std::string& line : result.lines) {
    all += line;
    all += '\n';
  }
  return all;
}

// Polls the stats verb (bounded) until the daemon's maintenance thread
// reports at least `want` checkpoints; returns the last count seen.
long long AwaitCheckpoints(const std::string& client, long long want) {
  long long checkpoints = 0;
  for (int attempt = 0; attempt < 600 && checkpoints < want; ++attempt) {
    const json::Value stats = LastJson(RunCommand(client + " stats"));
    const json::Value* store = stats.Find("store");
    const json::Value* maintenance =
        store == nullptr ? nullptr : store->Find("maintenance");
    if (maintenance != nullptr) {
      checkpoints = maintenance->GetInt("checkpoints");
    }
  }
  return checkpoints;
}

// Launches slicetuner_serve with `extra_flags`, reads the ephemeral port
// off the banner (plus any banner lines before it into *banner), and
// returns the process pipe. Null on failure to launch or bind.
// `env_prefix` ("VAR=value ") is prepended to the shell command — the
// crash/restart test arms SLICETUNER_FAULT_CRASH this way.
std::FILE* LaunchServer(const std::string& extra_flags, int* port,
                        std::string* banner = nullptr,
                        const std::string& env_prefix = "") {
  std::FILE* server = ::popen((env_prefix + SLICETUNER_SERVE_BIN +
                               " --port=0 " + extra_flags + " 2>&1")
                                  .c_str(),
                              "r");
  if (server == nullptr) return nullptr;
  *port = 0;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
    const std::string line = buf;
    if (banner != nullptr) *banner += line;
    const size_t marker = line.find("listening on 127.0.0.1:");
    if (marker != std::string::npos) {
      *port = std::atoi(line.c_str() + marker +
                        std::strlen("listening on 127.0.0.1:"));
      break;
    }
  }
  return server;
}

TEST(ServeSmokeTest, SubmitStreamCancelShutdownViaRealBinaries) {
  // Launch the server on an ephemeral port and read the port back off its
  // banner line. --metrics-dump exercises the shutdown text exposition.
  const std::string dump_path = testing::TempDir() + "/smoke_metrics.prom";
  (void)RunCommand("rm -f " + dump_path);
  int port = 0;
  std::FILE* server = LaunchServer(
      "--max-queue=8 --metrics-dump=" + dump_path, &port);
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0) << "server never printed its listen banner";
  char buf[4096];

  const std::string client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);

  // 1. Submit a 2-round tuning job.
  const CommandResult submitted = RunCommand(
      client + " submit --session=s1 --rows=40 --budget=40 --rounds=2");
  EXPECT_EQ(submitted.exit_code, 0) << JoinLines(submitted);
  EXPECT_TRUE(LastJson(submitted).GetBool("ok")) << JoinLines(submitted);

  // 2. Stream it to completion: at least 2 progress frames, then done.
  const CommandResult streamed = RunCommand(client + " stream --session=s1");
  EXPECT_EQ(streamed.exit_code, 0) << JoinLines(streamed);
  int progress_frames = 0;
  std::string final_state;
  for (const std::string& line : streamed.lines) {
    const Result<json::Value> frame = json::Value::Parse(line);
    if (!frame.ok()) continue;
    const std::string kind = frame->GetString("frame");
    if (kind == "progress") ++progress_frames;
    if (kind == "done") final_state = frame->GetString("state");
  }
  EXPECT_GE(progress_frames, 2) << JoinLines(streamed);
  EXPECT_EQ(final_state, "done") << JoinLines(streamed);

  // 3. Submit a long job and cancel it; it must resolve cancelled.
  const CommandResult long_job = RunCommand(
      client + " submit --session=s2 --rows=40 --budget=400 --rounds=400");
  EXPECT_EQ(long_job.exit_code, 0) << JoinLines(long_job);
  const CommandResult cancelled =
      RunCommand(client + " cancel --session=s2");
  EXPECT_EQ(cancelled.exit_code, 0) << JoinLines(cancelled);
  std::string s2_state;
  for (int attempt = 0; attempt < 600; ++attempt) {
    const CommandResult polled = RunCommand(client + " poll --session=s2");
    s2_state = LastJson(polled).GetString("state");
    if (s2_state == "cancelled" || s2_state == "done" ||
        s2_state == "failed") {
      break;
    }
  }
  EXPECT_EQ(s2_state, "cancelled");

  // 4. Stats must acknowledge and report both sessions.
  const CommandResult stats = RunCommand(client + " stats");
  EXPECT_EQ(stats.exit_code, 0) << JoinLines(stats);
  const json::Value stats_json = LastJson(stats);
  EXPECT_TRUE(stats_json.GetBool("ok"));
  const json::Value* sessions = stats_json.Find("sessions");
  ASSERT_NE(sessions, nullptr) << JoinLines(stats);
  EXPECT_EQ(sessions->GetInt("sessions"), 2);

  // 5. The metrics verb against the live daemon: serve stage latencies,
  // queue depth, shed counters, and the engine's cache hit ratio are all
  // live-queryable, the way docs/OBSERVABILITY.md promises an operator.
  const CommandResult metrics = RunCommand(client + " metrics");
  EXPECT_EQ(metrics.exit_code, 0) << JoinLines(metrics);
  const json::Value metrics_json = LastJson(metrics);
  EXPECT_TRUE(metrics_json.GetBool("ok")) << JoinLines(metrics);
  const json::Value* counters = metrics_json.Find("counters");
  ASSERT_NE(counters, nullptr) << JoinLines(metrics);
  EXPECT_GE(counters->GetInt("serve_requests_total"), 4);
  EXPECT_TRUE(counters->Has("serve_shed_queue_full_total"));
  const json::Value* gauges = metrics_json.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_TRUE(gauges->Has("serve_queue_depth"));
  EXPECT_TRUE(gauges->Has("engine_cache_hit_ratio"));
  const json::Value* histograms = metrics_json.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* parse_stage =
      histograms->Find("serve_stage_ns{stage=\"parse\"}");
  ASSERT_NE(parse_stage, nullptr) << JoinLines(metrics);
  EXPECT_GE(parse_stage->GetInt("count"), 1);
  EXPECT_GE(parse_stage->GetDouble("p99"), parse_stage->GetDouble("p50"));

  // 6. Graceful shutdown: the client is acknowledged and the server
  // process exits 0 after writing its stats summary.
  const CommandResult shutdown = RunCommand(client + " shutdown");
  EXPECT_EQ(shutdown.exit_code, 0) << JoinLines(shutdown);

  std::string server_tail;
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
    server_tail += buf;
  }
  const int server_status = ::pclose(server);
  EXPECT_TRUE(WIFEXITED(server_status));
  EXPECT_EQ(WEXITSTATUS(server_status), 0) << server_tail;
  EXPECT_NE(server_tail.find("shut down cleanly"), std::string::npos)
      << server_tail;

  // 7. The shutdown metrics dump is a Prometheus-style text exposition.
  const CommandResult dumped = RunCommand("cat " + dump_path);
  ASSERT_EQ(dumped.exit_code, 0) << "missing " << dump_path;
  const std::string exposition = JoinLines(dumped);
  EXPECT_NE(exposition.find("serve_requests_total "), std::string::npos)
      << exposition;
  EXPECT_NE(
      exposition.find("serve_stage_ns{stage=\"parse\",quantile=\"0.5\"}"),
      std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("serve_submit_to_done_ns_count "),
            std::string::npos)
      << exposition;
}

// Warm restart across real daemon processes: run a job under --state-dir,
// checkpoint via the snapshot verb, shut down, start a NEW process on the
// same directory, and resubmit with appended rows. The restarted daemon
// must know the session (jobs_run carries over) and ride the restored
// curve cache: strictly fewer trainings than the cold job, with
// partial_refits advancing — the warm-restart contract of docs/STATE.md
// exercised exactly the way an operator would.
TEST(ServeSmokeTest, WarmRestartAcrossRealProcesses) {
  const std::string state_dir = testing::TempDir() + "/smoke_state";
  (void)RunCommand("rm -rf " + state_dir);

  // --- first daemon: cold job + checkpoint + graceful shutdown ---
  int port = 0;
  std::FILE* server = LaunchServer("--state-dir=" + state_dir, &port);
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0);
  std::string client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);

  const CommandResult submitted = RunCommand(
      client + " submit --session=w1 --rows=60 --budget=40 --rounds=1");
  EXPECT_TRUE(LastJson(submitted).GetBool("ok")) << JoinLines(submitted);
  const CommandResult streamed = RunCommand(client + " stream --session=w1");
  EXPECT_EQ(streamed.exit_code, 0) << JoinLines(streamed);

  const json::Value cold_poll =
      LastJson(RunCommand(client + " poll --session=w1"));
  ASSERT_EQ(cold_poll.GetString("state"), "done") << cold_poll.Dump();
  const long long cold_trainings = cold_poll.GetInt("last_job_trainings");
  EXPECT_GT(cold_trainings, 0);

  const CommandResult snapshot = RunCommand(client + " snapshot");
  EXPECT_EQ(snapshot.exit_code, 0) << JoinLines(snapshot);
  EXPECT_TRUE(LastJson(snapshot).GetBool("ok")) << JoinLines(snapshot);

  EXPECT_EQ(RunCommand(client + " shutdown").exit_code, 0);
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
  }
  const int first_status = ::pclose(server);
  ASSERT_TRUE(WIFEXITED(first_status) && WEXITSTATUS(first_status) == 0);

  // --- second daemon, same state dir: the session must be back, warm ---
  std::string banner;
  server = LaunchServer("--state-dir=" + state_dir, &port, &banner);
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0) << banner;
  client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);

  const json::Value restored_poll =
      LastJson(RunCommand(client + " poll --session=w1"));
  ASSERT_TRUE(restored_poll.GetBool("ok")) << restored_poll.Dump();
  EXPECT_EQ(restored_poll.GetString("state"), "done");
  EXPECT_EQ(restored_poll.GetInt("jobs_run"), 1);

  const CommandResult resubmitted = RunCommand(
      client + " submit --session=w1 --append=40 --append-slice=2");
  EXPECT_TRUE(LastJson(resubmitted).GetBool("ok")) << JoinLines(resubmitted);
  EXPECT_EQ(RunCommand(client + " stream --session=w1").exit_code, 0);

  const json::Value warm_poll =
      LastJson(RunCommand(client + " poll --session=w1"));
  ASSERT_EQ(warm_poll.GetString("state"), "done") << warm_poll.Dump();
  EXPECT_EQ(warm_poll.GetInt("jobs_run"), 2);
  EXPECT_LT(warm_poll.GetInt("last_job_trainings"), cold_trainings)
      << warm_poll.Dump();
  const json::Value* cache = warm_poll.Find("curve_cache");
  ASSERT_NE(cache, nullptr) << warm_poll.Dump();
  EXPECT_GE(cache->GetInt("partial_refits"), 1) << warm_poll.Dump();

  // The restore verb is acknowledged and idempotent against live sessions.
  const json::Value restore = LastJson(RunCommand(client + " restore"));
  EXPECT_TRUE(restore.GetBool("ok")) << restore.Dump();

  // With a state dir, the metrics verb reports store durability latencies
  // and the startup replay duration.
  const json::Value durable_metrics = LastJson(RunCommand(client + " metrics"));
  ASSERT_TRUE(durable_metrics.GetBool("ok")) << durable_metrics.Dump();
  const json::Value* histograms = durable_metrics.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* fsync = histograms->Find("store_fsync_ns");
  ASSERT_NE(fsync, nullptr) << durable_metrics.Dump();
  EXPECT_GE(fsync->GetInt("count"), 1);
  EXPECT_TRUE(histograms->Has("store_append_ns"));
  const json::Value* gauges = durable_metrics.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_TRUE(gauges->Has("store_replay_ms"));
  // ...split by phase. store_replay_ms is the time to listen: open and
  // restore add up to no more than it.
  double phases_ms = 0.0;
  for (const char* phase : {"open", "restore"}) {
    const std::string key =
        std::string("store_replay_phase_ms{phase=\"") + phase + "\"}";
    ASSERT_TRUE(gauges->Has(key)) << key << " in " << gauges->Dump();
    EXPECT_GE(gauges->GetDouble(key), 0.0) << key;
    phases_ms += gauges->GetDouble(key);
  }
  EXPECT_LE(phases_ms, gauges->GetDouble("store_replay_ms"));
  // The startup checkpoint runs after listen, on the maintenance thread;
  // once stats shows it, its phase gauge holds its duration.
  ASSERT_GE(AwaitCheckpoints(client, 1), 1)
      << "the startup checkpoint never landed";
  const json::Value after_checkpoint =
      LastJson(RunCommand(client + " metrics"));
  const json::Value* checkpoint_gauges = after_checkpoint.Find("gauges");
  ASSERT_NE(checkpoint_gauges, nullptr) << after_checkpoint.Dump();
  EXPECT_GT(checkpoint_gauges->GetDouble(
                "store_replay_phase_ms{phase=\"checkpoint\"}"),
            0.0)
      << checkpoint_gauges->Dump();

  EXPECT_EQ(RunCommand(client + " shutdown").exit_code, 0);
  std::string server_tail;
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
    server_tail += buf;
  }
  const int second_status = ::pclose(server);
  EXPECT_TRUE(WIFEXITED(second_status));
  EXPECT_EQ(WEXITSTATUS(second_status), 0) << server_tail;
}

// End-to-end observability surfaces against real binaries: a client-minted
// trace id rides submit → done frame → trace verb (events + span tree), the
// metrics verb honors its name-prefix filter, and slicetuner_top --once
// renders one machine-readable dashboard line off the live daemon.
TEST(ServeSmokeTest, TraceVerbPrefixFilterAndTopDashboard) {
  int port = 0;
  std::FILE* server = LaunchServer("", &port);
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0);
  const std::string client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);
  const std::string trace_id = "00000000deadbeef";

  // 1. Submit with a client-supplied trace id; the ack echoes it.
  const CommandResult submitted =
      RunCommand(client + " submit --session=t1 --rows=40 --budget=40 "
                          "--rounds=2 --trace-id=" +
                 trace_id);
  EXPECT_EQ(submitted.exit_code, 0) << JoinLines(submitted);
  const json::Value submit_json = LastJson(submitted);
  EXPECT_TRUE(submit_json.GetBool("ok")) << JoinLines(submitted);
  EXPECT_EQ(submit_json.GetString("trace_id"), trace_id)
      << JoinLines(submitted);

  // 2. The done frame closes the trace: same id, plus the job's span tree
  // with one child span per tuning round.
  const CommandResult streamed = RunCommand(client + " stream --session=t1");
  EXPECT_EQ(streamed.exit_code, 0) << JoinLines(streamed);
  bool saw_done = false;
  for (const std::string& line : streamed.lines) {
    const Result<json::Value> frame = json::Value::Parse(line);
    if (!frame.ok() || frame->GetString("frame") != "done") continue;
    saw_done = true;
    EXPECT_EQ(frame->GetString("trace_id"), trace_id) << line;
    const json::Value* tree = frame->Find("trace");
    ASSERT_NE(tree, nullptr) << line;
    EXPECT_EQ(tree->GetString("name"), "job");
    EXPECT_EQ(tree->GetString("trace_id"), trace_id);
    const json::Value* rounds = tree->Find("rounds");
    ASSERT_NE(rounds, nullptr) << line;
    EXPECT_EQ(rounds->size(), 2u) << line;
  }
  EXPECT_TRUE(saw_done) << JoinLines(streamed);

  // 3. The trace verb replays the request's flight-recorder events and the
  // session's span tree. Every event carries the session we filtered on,
  // and the job lifecycle markers are present.
  const CommandResult traced =
      RunCommand(client + " trace --session=t1 --limit=200");
  EXPECT_EQ(traced.exit_code, 0) << JoinLines(traced);
  const json::Value trace_json = LastJson(traced);
  ASSERT_TRUE(trace_json.GetBool("ok")) << JoinLines(traced);
  EXPECT_EQ(trace_json.GetString("state"), "done");
  const json::Value* events = trace_json.Find("events");
  ASSERT_NE(events, nullptr) << JoinLines(traced);
  ASSERT_GT(events->size(), 0u) << JoinLines(traced);
  std::set<std::string> kinds;
  for (const json::Value& event : events->items()) {
    EXPECT_EQ(event.GetString("session"), "t1") << event.Dump();
    EXPECT_GT(event.GetInt("ts_ns"), 0) << event.Dump();
    kinds.insert(event.GetString("kind"));
  }
  for (const char* kind : {"job_start", "round_start", "job_done"}) {
    EXPECT_TRUE(kinds.count(kind)) << "missing " << kind << " in "
                                   << JoinLines(traced);
  }
  const json::Value* verb_tree = trace_json.Find("trace");
  ASSERT_NE(verb_tree, nullptr) << JoinLines(traced);
  EXPECT_EQ(verb_tree->GetString("trace_id"), trace_id);

  // Filtering by trace id instead of session returns only that request's
  // events.
  const json::Value by_id =
      LastJson(RunCommand(client + " trace --trace-id=" + trace_id));
  ASSERT_TRUE(by_id.GetBool("ok")) << by_id.Dump();
  const json::Value* id_events = by_id.Find("events");
  ASSERT_NE(id_events, nullptr);
  ASSERT_GT(id_events->size(), 0u);
  for (const json::Value& event : id_events->items()) {
    EXPECT_EQ(event.GetString("trace_id"), trace_id) << event.Dump();
  }

  // 4. The metrics name-prefix filter: a store_ prefix must drop every
  // serve_ series from all three sections.
  const json::Value filtered =
      LastJson(RunCommand(client + " metrics --prefix=serve_"));
  ASSERT_TRUE(filtered.GetBool("ok")) << filtered.Dump();
  const json::Value* counters = filtered.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GT(counters->members().size(), 0u);
  for (const auto& member : counters->members()) {
    EXPECT_EQ(member.first.rfind("serve_", 0), 0u) << member.first;
  }
  const json::Value* gauges = filtered.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const auto& member : gauges->members()) {
    EXPECT_EQ(member.first.rfind("serve_", 0), 0u) << member.first;
  }

  // 5. slicetuner_top --once: one machine-readable snapshot line off the
  // same daemon, with per-worker request counts.
  const CommandResult top = RunCommand(std::string(SLICETUNER_TOP_BIN) +
                                       " --port=" + std::to_string(port) +
                                       " --once");
  EXPECT_EQ(top.exit_code, 0) << JoinLines(top);
  const json::Value top_json = LastJson(top);
  EXPECT_GE(top_json.GetInt("requests_total"), 2) << JoinLines(top);
  EXPECT_GE(top_json.GetInt("jobs_done_total"), 1) << JoinLines(top);
  EXPECT_GE(top_json.GetInt("sessions"), 1) << JoinLines(top);
  const json::Value* workers = top_json.Find("worker_requests");
  ASSERT_NE(workers, nullptr) << JoinLines(top);
  EXPECT_GT(workers->size(), 0u) << JoinLines(top);

  EXPECT_EQ(RunCommand(client + " shutdown").exit_code, 0);
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
  }
  const int server_status = ::pclose(server);
  EXPECT_TRUE(WIFEXITED(server_status));
  EXPECT_EQ(WEXITSTATUS(server_status), 0);
}

// Autonomous maintenance under a real crash: a daemon with snapshot
// cadence every 2 jobs is killed (fault-injected _exit, a faithful
// SIGKILL) in the middle of its second online checkpoint — after the new
// snapshot published, before the covered journals were retired. A fresh
// daemon on the same directory must bring every session back with a
// bounded replay window, keep the retained rollback snapshot, and serve
// new work (docs/STATE.md "Maintenance lifecycle", exercised end to end).
TEST(ServeSmokeTest, MaintenanceCrashMidCheckpointRestartsAndRecovers) {
  const std::string state_dir = testing::TempDir() + "/smoke_maint";
  (void)RunCommand("rm -rf " + state_dir);

  const std::string maint_flags =
      "--state-dir=" + state_dir +
      " --snapshot-every-jobs=2 --maintenance-interval-ms=25"
      " --retain-snapshots=1";
  int port = 0;
  // skip=2: the startup checkpoint (the maintenance thread's first) and
  // the first cadence checkpoint pass the point; the second cadence
  // checkpoint dies there.
  std::FILE* server = LaunchServer(
      maint_flags, &port, nullptr,
      "SLICETUNER_FAULT_CRASH=maint.post_snapshot.pre_retire:2 ");
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0);
  std::string client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);

  const auto run_job = [&client](const std::string& session) {
    const CommandResult submitted = RunCommand(
        client + " submit --session=" + session +
        " --rows=40 --budget=40 --rounds=1");
    const CommandResult streamed =
        RunCommand(client + " stream --session=" + session);
    (void)submitted;
    (void)streamed;
  };

  // The startup checkpoint lands first, so it cannot absorb the jobs
  // below. Two finished jobs then trigger cadence checkpoint #1; waiting
  // for it makes the second pair deterministically trigger cadence
  // checkpoint #2.
  ASSERT_GE(AwaitCheckpoints(client, 1), 1)
      << "startup checkpoint never landed";
  run_job("m1");
  run_job("m2");
  ASSERT_GE(AwaitCheckpoints(client, 2), 2)
      << "first cadence checkpoint never landed";

  // Two more jobs arm checkpoint #2, which dies mid-maintenance. The
  // stream near the crash may fail — only the exit matters here.
  run_job("m3");
  run_job("m4");
  std::string server_tail;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
    server_tail += buf;
  }
  const int crashed_status = ::pclose(server);
  ASSERT_TRUE(WIFEXITED(crashed_status)) << server_tail;
  EXPECT_EQ(WEXITSTATUS(crashed_status), 42) << server_tail;
  EXPECT_NE(
      server_tail.find("crashing at maint.post_snapshot.pre_retire"),
      std::string::npos)
      << server_tail;

  // The interrupted checkpoint preserved its predecessor as a rollback
  // artifact; the kill left it on disk.
  const CommandResult listed = RunCommand("ls " + state_dir);
  EXPECT_NE(JoinLines(listed).find("snapshot-"), std::string::npos)
      << JoinLines(listed);

  // --- restart on the same directory, crash arming gone ---
  std::string banner;
  server = LaunchServer(maint_flags, &port, &banner);
  ASSERT_NE(server, nullptr);
  ASSERT_GT(port, 0) << banner;
  client =
      std::string(SLICETUNER_CLIENT_BIN) + " --port=" + std::to_string(port);

  // Every pre-crash session polls back finished.
  for (const char* session : {"m1", "m2", "m3", "m4"}) {
    const json::Value polled =
        LastJson(RunCommand(client + " poll --session=" + session));
    ASSERT_TRUE(polled.GetBool("ok")) << session << ": " << polled.Dump();
    EXPECT_EQ(polled.GetString("state"), "done") << session;
  }

  // Bounded replay: the crash happened after the snapshot published, so
  // restart replay applies at most a handful of journal records — not the
  // whole history.
  const json::Value stats = LastJson(RunCommand(client + " stats"));
  const json::Value* store_stats = stats.Find("store");
  ASSERT_NE(store_stats, nullptr) << stats.Dump();
  const json::Value* restore = store_stats->Find("startup_restore");
  ASSERT_NE(restore, nullptr) << stats.Dump();
  EXPECT_EQ(restore->GetInt("sessions_restored"), 4) << restore->Dump();
  EXPECT_EQ(restore->GetInt("sessions_failed", -1), 0) << restore->Dump();
  EXPECT_LE(restore->GetInt("journal_records_applied"), 8)
      << restore->Dump();
  const json::Value* maintenance = store_stats->Find("maintenance");
  ASSERT_NE(maintenance, nullptr) << stats.Dump();
  EXPECT_TRUE(maintenance->GetBool("enabled"));

  // The tail gauge rides along for operators even before any warning.
  const json::Value metrics = LastJson(RunCommand(client + " metrics"));
  ASSERT_TRUE(metrics.GetBool("ok")) << metrics.Dump();
  const json::Value* gauges = metrics.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_TRUE(gauges->Has("store_journal_tail_bytes")) << metrics.Dump();

  // The restarted daemon serves new work and shuts down cleanly.
  const CommandResult fresh = RunCommand(
      client + " submit --session=m5 --rows=40 --budget=40 --rounds=1");
  EXPECT_TRUE(LastJson(fresh).GetBool("ok")) << JoinLines(fresh);
  EXPECT_EQ(RunCommand(client + " stream --session=m5").exit_code, 0);

  EXPECT_EQ(RunCommand(client + " shutdown").exit_code, 0);
  server_tail.clear();
  while (std::fgets(buf, sizeof(buf), server) != nullptr) {
    server_tail += buf;
  }
  const int second_status = ::pclose(server);
  EXPECT_TRUE(WIFEXITED(second_status));
  EXPECT_EQ(WEXITSTATUS(second_status), 0) << server_tail;
}

// Crash dumps: a deliberate SIGABRT inside the daemon must leave a
// parseable flight-recorder dump (and a best-effort metrics exposition)
// under <state-dir>/crash/ — the post-mortem contract of
// docs/OBSERVABILITY.md, exercised with the real signal handler.
TEST(ServeSmokeTest, CrashDumpSurvivesDeliberateAbort) {
  const std::string state_dir = testing::TempDir() + "/smoke_crash";
  (void)RunCommand("rm -rf " + state_dir);

  const CommandResult crashed =
      RunCommand(std::string(SLICETUNER_SERVE_BIN) +
                 " --port=0 --state-dir=" + state_dir + " --crash-test=abort");
  // SIGABRT through the shell surfaces as exit 128 + 6.
  EXPECT_EQ(crashed.exit_code, 134) << JoinLines(crashed);
  EXPECT_NE(JoinLines(crashed).find("crash-test: raising SIGABRT"),
            std::string::npos)
      << JoinLines(crashed);

  // The recorder dump is line-oriented text written from the signal
  // handler: `ts_ns thread kind trace_id session arg`, one record per
  // line, including the events the crash-test path recorded.
  std::ifstream recorder_dump(state_dir + "/crash/recorder.txt");
  ASSERT_TRUE(recorder_dump.is_open()) << "missing crash recorder dump";
  bool saw_recv = false;
  bool saw_done = false;
  std::string line;
  while (std::getline(recorder_dump, line)) {
    std::istringstream fields(line);
    long long ts_ns = 0;
    long long thread = -1;
    std::string kind, dumped_id, session, arg;
    fields >> ts_ns >> thread >> kind >> dumped_id >> session >> arg;
    EXPECT_GT(ts_ns, 0) << line;
    EXPECT_GE(thread, 0) << line;
    EXPECT_FALSE(kind.empty()) << line;
    EXPECT_EQ(dumped_id.size(), 16u) << line;
    if (session == "crash-test" && kind == "request_recv") saw_recv = true;
    if (session == "crash-test" && kind == "request_done") saw_done = true;
  }
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_done);

  // The metrics exposition is best-effort but present on this controlled
  // abort.
  std::ifstream metrics_dump(state_dir + "/crash/metrics.txt");
  EXPECT_TRUE(metrics_dump.is_open()) << "missing crash metrics dump";
}

}  // namespace
}  // namespace slicetuner
