// End-to-end load-harness test over the real binaries: runs
// slicetuner_loadgen in spawn mode (it forks a real slicetuner_serve with a
// state dir), at a small-but-honest scale with one mid-run SIGKILL +
// restart, and asserts the run passes — every session terminal, nothing
// acked lost, the oracle bit-identity check green, and BENCH_load.json's
// gated bools all true. This is the smoke-scale twin of the nightly stress
// lane (.github/workflows/nightly-stress.yml).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "common/json.h"

namespace slicetuner {
namespace {

#ifndef SLICETUNER_LOADGEN_BIN
#define SLICETUNER_LOADGEN_BIN "./slicetuner_loadgen"
#endif
#ifndef SLICETUNER_SERVE_BIN
#define SLICETUNER_SERVE_BIN "./slicetuner_serve"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

TEST(LoadE2ETest, KillAndRestartRunPassesAllGates) {
  // Own results dir so a parallel ctest run (load_stress writes into the
  // default one) cannot collide on BENCH_load.json / the state dir.
  const std::string results = testing::TempDir() + "/load_e2e_results";
  const CommandResult run = RunCommand(
      "SLICETUNER_RESULTS_DIR=" + results + " " + SLICETUNER_LOADGEN_BIN +
      " --serve-bin=" + SLICETUNER_SERVE_BIN +
      " --sessions=48 --kills=1 --rate=80 --driver-threads=3"
      " --append-fraction=0.3 --cancel-fraction=0.1 --stalled-readers=1"
      " --seed=11");
  EXPECT_EQ(run.exit_code, 0) << run.output;

  const Result<std::string> text =
      ReadFileToString(results + "/BENCH_load.json");
  ASSERT_TRUE(text.ok()) << run.output;
  const Result<json::Value> summary = json::Value::Parse(*text);
  ASSERT_TRUE(summary.ok());

  for (const char* key :
       {"all_sessions_terminal", "no_sessions_failed",
        "no_acknowledged_lost", "restart_recovered", "oracle_match",
        "oracle_covers_clean", "slo_shed_rate_ok", "slo_poll_p99_ok", "slo_submit_p99_ok",
        "daemon_clean_shutdown"}) {
    ASSERT_TRUE(summary->Has(key)) << key;
    EXPECT_TRUE(summary->GetBool(key)) << key << "\n" << run.output;
  }
  EXPECT_EQ(summary->GetInt("restarts_done"), 1) << run.output;
  EXPECT_GT(summary->GetInt("oracle_checked"), 0) << run.output;
  EXPECT_GE(summary->GetInt("submits"), summary->GetInt("sessions"));

  // The daemon's log (redirected stdout/stderr across both generations)
  // must show two startups against the same state dir.
  const Result<std::string> log =
      ReadFileToString(results + "/load_daemon.log");
  ASSERT_TRUE(log.ok());
  size_t banners = 0, pos = 0;
  while ((pos = log->find("slicetuner_serve listening", pos)) !=
         std::string::npos) {
    ++banners;
    pos += 1;
  }
  EXPECT_EQ(banners, 2u) << *log;
}

}  // namespace
}  // namespace slicetuner
