// perfbench: the repository benchmark. Drives a real slicetuner_serve from
// one client process and prints, as its last stdout line, one JSON object
// {"correct","attempted","failed","metrics"}.
//
// Usage (perfbench/run.py builds the binaries and passes the first two):
//   perfbench --serve-bin=PATH --work-dir=DIR
//             --workload tune-cold|restart-append
//             --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice with the same seed, untraced and then traced, and reports the
// per-layer metrics plus the tracing overhead between the two. Exits 1 on
// any correctness failure or run error.

#include <sys/statfs.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/json.h"
#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using slicetuner::json::Value;

// Accepts both --name=value and --name value.
bool FlagValue(int argc, char** argv, int* i, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(argv[*i], name, len) != 0) return false;
  if (argv[*i][len] == '=') {
    *out = argv[*i] + len + 1;
    return true;
  }
  if (argv[*i][len] == '\0' && *i + 1 < argc) {
    *out = argv[++*i];
    return true;
  }
  return false;
}

std::string FsType(const std::string& path) {
  struct statfs st;
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

Value MetricsJson(const std::vector<Metric>& metrics) {
  Value out = Value::Object();
  for (const Metric& m : metrics) {
    Value entry = Value::Object();
    entry.Set("value", std::isfinite(m.value) ? Value(m.value) : Value());
    entry.Set("unit", m.unit);
    out.Set(m.name, std::move(entry));
  }
  return out;
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.6g %-7s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace = "0", seed = "1", seconds = "10";
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argc, argv, &i, "--workload", &options.workload) ||
        FlagValue(argc, argv, &i, "--serve-bin", &options.serve_bin) ||
        FlagValue(argc, argv, &i, "--work-dir", &options.work_dir) ||
        FlagValue(argc, argv, &i, "--seed", &seed) ||
        FlagValue(argc, argv, &i, "--seconds", &seconds) ||
        FlagValue(argc, argv, &i, "--trace", &trace)) {
      continue;
    }
    std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
    return 2;
  }
  options.seed = std::strtoull(seed.c_str(), nullptr, 10);
  options.seconds = std::strtod(seconds.c_str(), nullptr);
  const bool traced = trace == "1";
  if (!perfbench::IsWorkload(options.workload) || options.serve_bin.empty() ||
      options.work_dir.empty() || !(options.seconds > 0.0) ||
      (trace != "0" && trace != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench --serve-bin=PATH --work-dir=DIR --workload "
                 "tune-cold|restart-append --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  options.clients = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  // The stamp: runs from another machine class must not be compared
  // silently.
  Value stamp = Value::Object();
  stamp.Set("nproc", options.clients);
  stamp.Set("cpu", CpuModel());
  stamp.Set("fs_type", FsType(options.work_dir));
  stamp.Set("daemon_flags", "--port=0 --state-dir=<fresh copy per daemon start>");
  stamp.Set("flush_policy",
            "fsync before each submit ack; one group-commit fsync per job; "
            "background maintenance off");

  auto fail = [&](const slicetuner::Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  };
  const auto prepared = perfbench::Prepare(options);
  if (!prepared.ok()) return fail(prepared.status());
  const std::string tag = options.workload + "-seed" + seed;
  const auto untraced = perfbench::Run(options, *prepared, false, tag + "-untraced");
  if (!untraced.ok()) return fail(untraced.status());
  std::vector<Metric> metrics = perfbench::EndToEnd(*untraced);
  std::vector<Metric> ungated = perfbench::Ungated(*untraced);
  std::vector<std::string> failures = untraced->failures;
  size_t attempted = untraced->jobs.size();
  if (traced) {
    const auto traced_run = perfbench::Run(options, *prepared, true, tag + "-traced");
    if (!traced_run.ok()) return fail(traced_run.status());
    metrics = perfbench::PerLayer(*traced_run, *untraced,
                                  options.work_dir + "/" + tag + ".spans.jsonl");
    failures.insert(failures.end(), traced_run->failures.begin(),
                    traced_run->failures.end());
    attempted += traced_run->jobs.size();
  }

  std::printf("perfbench %s seed=%s seconds=%s trace=%s\n", options.workload.c_str(),
              seed.c_str(), seconds.c_str(), trace.c_str());
  std::printf("stamp %s\n", stamp.Dump().c_str());
  PrintMetrics(traced ? "per-layer (traced run)" : "end-to-end (untraced run)", metrics);
  if (!traced) {
    PrintMetrics("reported, not gated (shed_ratio and fail_ratio must read 0)", ungated);
  }
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("FAIL %s\n", failures[i].c_str());
  }

  Value record = Value::Object();
  record.Set("stamp", stamp);
  record.Set("workload", options.workload);
  record.Set("seed", seed);
  record.Set("trace", traced);
  record.Set("metrics", MetricsJson(metrics));
  record.Set("ungated", MetricsJson(ungated));
  std::ofstream(options.work_dir + "/" + tag + (traced ? "-trace1" : "-trace0") + ".json")
      << record.Dump(2) << "\n";

  Value last = Value::Object();
  last.Set("correct", failures.empty());
  last.Set("attempted", attempted);
  last.Set("failed", failures.size());
  last.Set("metrics", MetricsJson(metrics));
  std::printf("%s\n", last.Dump().c_str());
  return failures.empty() ? 0 : 1;
}
