// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures. Each bench prints a human-readable table mirroring the
// paper and writes a CSV next to it under results/.

#ifndef SLICETUNER_BENCH_BENCH_UTIL_H_
#define SLICETUNER_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/fs_util.h"
#include "common/json.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/experiment.h"

namespace slicetuner {
namespace bench {

// MkDirRecursive and the SLICETUNER_RESULTS_DIR convention now live in
// common/fs_util.h, shared with the serving tools; re-exported here so the
// bench drivers keep reading naturally.
using ::slicetuner::MkDirRecursive;
using ::slicetuner::ResultsDir;

/// "0.302" / "0.134 / 0.319" cells used across the method tables.
inline std::string LossCell(const MethodOutcome& o) {
  return FormatDouble(o.loss_mean, 3);
}

inline std::string LossCellWithSe(const MethodOutcome& o) {
  return FormatDouble(o.loss_mean, 3) + " +- " + FormatDouble(o.loss_se, 3);
}

inline std::string EerCell(const MethodOutcome& o) {
  return FormatDouble(o.avg_eer_mean, 3) + " / " +
         FormatDouble(o.max_eer_mean, 3);
}

inline std::string AvgEerCellWithSe(const MethodOutcome& o) {
  return FormatDouble(o.avg_eer_mean, 3) + " +- " +
         FormatDouble(o.avg_eer_se, 3);
}

/// Shared learning-curve estimation settings for the benches: K = 8 subset
/// points, 3 averaged draws (the paper uses K = 10 and 5 draws; we scale
/// down proportionally with our smaller data sizes).
inline LearningCurveOptions BenchCurveOptions(uint64_t seed) {
  LearningCurveOptions o;
  o.num_points = 8;
  o.num_curve_draws = 3;
  o.seed = seed;
  return o;
}

/// The methods of Tables 2/10 in paper order.
inline std::vector<Method> SliceTunerMethods() {
  return {Method::kOriginal, Method::kOneShot, Method::kAggressive,
          Method::kModerate, Method::kConservative};
}

/// Parses an integer `--<flag>=N` argument (e.g. "--threads=").
inline int ParseIntFlag(int argc, char** argv, const char* prefix,
                        int default_value) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      return std::atoi(argv[i] + len);
    }
  }
  return default_value;
}

/// Parses a string `--<flag>=value` argument (e.g. "--state-dir=").
inline std::string ParseStringFlag(int argc, char** argv, const char* prefix,
                                   const std::string& default_value) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      return std::string(argv[i] + len);
    }
  }
  return default_value;
}

/// Parses `--threads=N` from the command line: the engine lane count the
/// bench opts into (1 = serial, 0 = every core; see common/parallel_for.h).
/// Results are identical at any setting — only wall time changes.
inline int ParseThreadsFlag(int argc, char** argv, int default_threads = 0) {
  return ParseIntFlag(argc, argv, "--threads=", default_threads);
}

/// Writes a BENCH_*.json summary document (pretty-printed, trailing
/// newline — the layout scripts/check_bench.py diffs against baselines).
inline Status WriteBenchJson(const std::string& path,
                             const json::Value& summary) {
  return WriteStringToFile(path, summary.Dump(/*indent=*/2) + "\n");
}

/// Legacy pair form: each value must be a valid JSON scalar literal
/// ("12.5", "true", "\"serial\""), validated through the common JSON parser
/// instead of being emitted verbatim.
inline Status WriteBenchJson(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  json::Value summary = json::Value::Object();
  for (const auto& field : fields) {
    Result<json::Value> value = json::Value::Parse(field.second);
    if (!value.ok()) {
      return Status::InvalidArgument("WriteBenchJson: field '" + field.first +
                                     "' is not a JSON scalar: " +
                                     value.status().message());
    }
    summary.Set(field.first, std::move(*value));
  }
  return WriteBenchJson(path, summary);
}

}  // namespace bench
}  // namespace slicetuner

#endif  // SLICETUNER_BENCH_BENCH_UTIL_H_
