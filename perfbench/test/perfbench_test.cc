// Unit tests of the perfbench client's own arithmetic and checks: exact
// percentiles and ratios on fixed inputs, span self times, and the oracle
// catching one coefficient tampered by 1e-12.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "measure.h"
#include "oracle.h"
#include "report.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (false)

using perfbench::Span;
using slicetuner::json::Value;

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  EXPECT(perfbench::Percentile(hundred, 0.50) == 50.0);
  EXPECT(perfbench::Percentile(hundred, 0.99) == 99.0);
  EXPECT(perfbench::Percentile(hundred, 1.00) == 100.0);
  EXPECT(perfbench::Percentile({7.5}, 0.99) == 7.5);
  EXPECT(perfbench::Percentile({3.0, 1.0, 2.0, 4.0}, 0.5) == 2.0);
  EXPECT(std::isnan(perfbench::Percentile({}, 0.5)));
  // The p99 of 1000 samples is the 990th: ten samples lie beyond it.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  EXPECT(perfbench::Percentile(thousand, 0.99) == 990.0);
}

void TestRatios() {
  EXPECT(perfbench::Ratio(3.0, 4.0) == 0.75);
  EXPECT(perfbench::Ratio(5.0, 0.0) == 0.0);
  EXPECT(perfbench::Mean({1.0, 2.0, 6.0}) == 3.0);
  EXPECT(std::isnan(perfbench::Mean({})));
}

void TestSelfTimesFixed() {
  // root [0,100): children [10,40) and [30,60) overlap -> cover 50;
  // grandchild [20,30) under the first child.
  const std::vector<Span> spans = {
      {"root", "client", -1, 0, 100},
      {"a", "serve", 0, 10, 40},
      {"b", "engine", 0, 30, 60},
      {"c", "opt", 1, 20, 30},
      {"d", "sim", 0, 90, 150},  // runs past its parent: clipped to 10
  };
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  EXPECT(self[0] == 100 - 50 - 10);
  EXPECT(self[1] == 30 - 10);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
  EXPECT(self[4] == 60);
}

void TestSelfTimesRandom() {
  slicetuner::Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Span> spans;
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    for (int i = 0; i < n; ++i) {
      const int64_t start = rng.UniformInt(int64_t{0}, int64_t{1000});
      const int64_t end = start + rng.UniformInt(int64_t{0}, int64_t{500});
      const int parent = i == 0 ? -1 : static_cast<int>(rng.UniformInt(static_cast<uint64_t>(i)));
      spans.push_back({"s", "serve", parent, start, end});
    }
    const std::vector<int64_t> self = perfbench::SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      EXPECT(self[i] >= 0);
      EXPECT(self[i] <= spans[i].end_ns - spans[i].start_ns);
    }
  }
}

void TestJobSpans() {
  perfbench::JobRecord job;
  job.send_ns = 1'000'000;
  job.ack_ns = 1'300'000;
  job.done_ns = 40'000'000;
  const Value tree = Value::Parse(
      R"({"name":"job","trace_id":"00000000000000aa","total_ms":30.0,"queue_wait_ms":2.0,
          "rounds":[{"name":"round","total_ms":12.0,
                     "stages":{"estimate_ms":9.0,"plan_ms":0.5,"acquire_ms":2.0}},
                    {"name":"round","total_ms":11.0,
                     "stages":{"estimate_ms":8.0,"plan_ms":0.5,"acquire_ms":2.0}}]})")
                         .value();
  job.tree = tree;
  const std::vector<Span> spans = perfbench::BuildSpans(job);
  const std::vector<int64_t> self = perfbench::SelfTimes(spans);
  int64_t total = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT(self[i] >= 0);
    EXPECT(self[i] <= spans[i].end_ns - spans[i].start_ns);
    total += self[i];
  }
  // Laid out without overlap, the self times partition the root.
  EXPECT(total == job.done_ns - job.send_ns);
  perfbench::LayerTotals totals;
  totals.Add(spans);
  EXPECT(totals.self_ns["engine"] == 17'000'000);
  EXPECT(totals.self_ns["unattributed"] == 39'000'000 - 32'000'000);
  double shares = 0.0;
  for (const auto& entry : totals.self_ns) shares += totals.Share(entry.first);
  EXPECT(std::fabs(shares - 1.0) < 1e-12);
}

void TestOracleCatchesTamper() {
  slicetuner::serve::JobSpec job;
  job.session = "tamper";
  job.num_slices = 4;
  job.rows_per_slice = 40;
  job.rounds = 1;
  job.budget = 24.0;
  job.method = "moderate";
  job.seed = 11;
  slicetuner::serve::JobSpec append;
  append.session = "tamper";
  append.append_rows = 16;
  append.append_slice = 2;
  append.rounds = 1;
  append.budget = 12.0;
  append.method = "moderate";
  const auto first = perfbench::ReplayFresh({job, append});
  const auto second = perfbench::ReplayFresh({job, append});
  EXPECT(first.ok() && second.ok());
  if (!first.ok() || !second.ok()) return;
  // Deterministic replay, and the JSON the daemon would send round-trips.
  for (size_t k = 0; k < first->size(); ++k) {
    const Value wire = Value::Parse((*first)[k].Dump()).value();
    EXPECT(perfbench::CompareClosing(wire, (*second)[k]).empty());
  }
  for (const char* coeff : {"b", "a"}) {
    Value tampered = Value::Object();
    for (const auto& [key, value] : (*first)[1].members()) {
      if (key != "curves") {
        tampered.Set(key, value);
        continue;
      }
      Value curves = Value::Object();
      for (const auto& [name, items] : value.members()) {
        Value copy = Value::Array();
        for (size_t i = 0; i < items.size(); ++i) {
          const double v = items.at(i).number_value();
          copy.Append(name == coeff && i == 1 ? v + 1e-12 : v);
        }
        curves.Set(name, std::move(copy));
      }
      tampered.Set("curves", std::move(curves));
    }
    const std::string diff = perfbench::CompareClosing(
        Value::Parse(tampered.Dump()).value(), (*second)[1]);
    EXPECT(diff.rfind(std::string("curves.") + coeff + "[1]", 0) == 0);
  }
  Value wrong_rows = (*first)[1];
  wrong_rows.Set("rows", wrong_rows.GetInt("rows") + 1);
  EXPECT(!perfbench::CompareClosing(wrong_rows, (*second)[1]).empty());
}

}  // namespace

int main() {
  TestPercentiles();
  TestRatios();
  TestSelfTimesFixed();
  TestSelfTimesRandom();
  TestJobSpans();
  TestOracleCatchesTamper();
  if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
