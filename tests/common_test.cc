// Unit tests for src/common: Status/Result, Rng, math/string utilities, CSV,
// table printing, and the thread pool.

#include <gtest/gtest.h>

#include <cmath>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include <cstdlib>

#include "common/csv.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/trace_context.h"

namespace slicetuner {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes;
  codes.insert(Status::InvalidArgument("").code());
  codes.insert(Status::OutOfRange("").code());
  codes.insert(Status::FailedPrecondition("").code());
  codes.insert(Status::NotFound("").code());
  codes.insert(Status::AlreadyExists("").code());
  codes.insert(Status::ResourceExhausted("").code());
  codes.insert(Status::Internal("").code());
  codes.insert(Status::NotImplemented("").code());
  codes.insert(Status::NumericalError("").code());
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto inner = [](bool fail) -> Status {
    if (fail) return Status::Internal("inner failed");
    return Status::OK();
  };
  auto outer = [&](bool fail) -> Status {
    ST_RETURN_NOT_OK(inner(fail));
    return Status::OK();
  };
  EXPECT_TRUE(outer(false).ok());
  EXPECT_EQ(outer(true).code(), StatusCode::kInternal);
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream oss;
  oss << Status::OutOfRange("idx");
  EXPECT_EQ(oss.str(), "OutOfRange: idx");
}

// ------------------------------------------------------------------ Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r = 5;
  EXPECT_EQ(r.value_or(-1), 5);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto consumer = [&](bool fail) -> Result<int> {
    ST_ASSIGN_OR_RETURN(int v, producer(fail));
    return v + 1;
  };
  EXPECT_EQ(consumer(false).value(), 8);
  EXPECT_EQ(consumer(true).status().code(), StatusCode::kInternal);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(10);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{5}));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{2});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(12);
  const int n = 50000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.Normal();
    sum += z;
    sumsq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LogNormalMeanMatchesClosedForm) {
  // E[exp(N(mu, sigma^2))] = exp(mu + sigma^2 / 2).
  Rng rng(14);
  const double mu = 1.0, sigma = 0.5;
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.LogNormal(mu, sigma);
  EXPECT_NEAR(sum / n, std::exp(mu + 0.5 * sigma * sigma), 0.05);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(16);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(18);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsLast) {
  Rng rng(19);
  EXPECT_EQ(rng.Categorical({0.0, 0.0, 0.0}), 2u);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(20);
  const auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(21);
  EXPECT_TRUE(rng.Permutation(0).empty());
  const auto one = rng.Permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(22);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  std::set<size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementClampsK) {
  Rng rng(23);
  const auto sample = rng.SampleWithoutReplacement(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementUniformity) {
  // Every index should be chosen roughly equally often.
  Rng rng(24);
  std::vector<int> counts(10, 0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r) {
    for (size_t v : rng.SampleWithoutReplacement(10, 3)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(reps), 0.3, 0.02);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(123);
  Rng child = a.Fork();
  Rng a2(123);
  Rng child2 = a2.Fork();
  // Same parent seed -> same child stream (determinism).
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child(), child2());
}

// --------------------------------------------------------------- math_util

TEST(MathUtilTest, Clamp) {
  EXPECT_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(Clamp(15.0, 0.0, 10.0), 10.0);
}

TEST(MathUtilTest, SafeLogClampsAtEpsilon) {
  EXPECT_DOUBLE_EQ(SafeLog(1.0), 0.0);
  EXPECT_GT(SafeLog(0.0), -30.0);  // clamped, not -inf
  EXPECT_LT(SafeLog(0.0), -20.0);
}

TEST(MathUtilTest, LogSumExpMatchesDirect) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const double direct =
      std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  EXPECT_NEAR(LogSumExp(xs), direct, 1e-12);
}

TEST(MathUtilTest, LogSumExpStableForLargeInputs) {
  const std::vector<double> xs = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(xs), 1000.0 + std::log(2.0), 1e-9);
}

TEST(MathUtilTest, MeanVarianceStdDev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Variance(xs), 1.25);
  EXPECT_NEAR(SampleStdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(MathUtilTest, EmptyAndSingletonStats) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({1.0}), 0.0);
  EXPECT_EQ(SampleStdDev({1.0}), 0.0);
  EXPECT_EQ(StandardError({1.0}), 0.0);
}

TEST(MathUtilTest, MinMaxSum) {
  const std::vector<double> xs = {3.0, -1.0, 2.0};
  EXPECT_EQ(Max(xs), 3.0);
  EXPECT_EQ(Min(xs), -1.0);
  EXPECT_EQ(Sum(xs), 4.0);
}

TEST(MathUtilTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs = {-2.0, -4.0, -6.0};
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
}

TEST(MathUtilTest, PearsonDegenerateIsZero) {
  EXPECT_EQ(PearsonCorrelation({1.0, 1.0}, {2.0, 3.0}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1.0}, {2.0}), 0.0);
}

TEST(MathUtilTest, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> obs = {1.0, 2.0, 3.0};
  EXPECT_NEAR(RSquared(obs, obs), 1.0, 1e-12);
  const std::vector<double> mean_pred = {2.0, 2.0, 2.0};
  EXPECT_NEAR(RSquared(obs, mean_pred), 0.0, 1e-12);
}

TEST(MathUtilTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.1));
  EXPECT_TRUE(AlmostEqual(1e9, 1e9 + 1.0, 1e-6));
}

// ------------------------------------------------------------- string_util

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ", "), "x");
}

TEST(StringUtilTest, Split) {
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitEmptyString) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, Strip) {
  EXPECT_EQ(Strip("  hi  "), "hi");
  EXPECT_EQ(Strip("\t\nhi"), "hi");
  EXPECT_EQ(Strip("   "), "");
  EXPECT_EQ(Strip("hi"), "hi");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

// --------------------------------------------------------------------- CSV

TEST(CsvTest, EscapePlainFieldUnchanged) {
  EXPECT_EQ(CsvWriter::EscapeField("abc"), "abc");
}

TEST(CsvTest, EscapeQuotesAndCommas) {
  EXPECT_EQ(CsvWriter::EscapeField("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::EscapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, WriteRowsRoundTrip) {
  const std::string path = testing::TempDir() + "/csv_test.csv";
  CsvWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  ASSERT_TRUE(w.WriteRow({"h1", "h2"}).ok());
  ASSERT_TRUE(w.WriteNumericRow({1.5, 2.25}, 2).ok());
  ASSERT_TRUE(w.Close().ok());

  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "h1,h2");
  EXPECT_EQ(line2, "1.50,2.25");
  std::remove(path.c_str());
}

TEST(CsvTest, WriteWithoutOpenFails) {
  CsvWriter w;
  EXPECT_EQ(w.WriteRow({"x"}).code(), StatusCode::kFailedPrecondition);
}

TEST(CsvTest, DoubleOpenFails) {
  const std::string path = testing::TempDir() + "/csv_test2.csv";
  CsvWriter w;
  ASSERT_TRUE(w.Open(path).ok());
  EXPECT_FALSE(w.Open(path).ok());
  ASSERT_TRUE(w.Close().ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------ TablePrinter

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"A", "LongHeader"});
  t.AddRow({"xxxx", "y"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| A    | LongHeader |"), std::string::npos);
  EXPECT_NE(out.find("| xxxx | y          |"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"A", "B", "C"});
  t.AddRow({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
  // Should render without crashing and contain the cell.
  EXPECT_NE(t.ToString().find("| 1 |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorAddsRule) {
  TablePrinter t({"A"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  const std::string out = t.ToString();
  // Header rule + top + bottom + middle separator = 4 horizontal rules.
  size_t rules = 0;
  for (size_t pos = out.find("+--"); pos != std::string::npos;
       pos = out.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_GE(rules, 4u);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DefaultPoolIsUsable) {
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    DefaultThreadPool().Submit([&counter] { counter.fetch_add(1); });
  }
  DefaultThreadPool().WaitIdle();
  EXPECT_EQ(counter.load(), 8);
  EXPECT_GE(DefaultThreadPool().num_threads(), 1u);
}

TEST(ThreadPoolTest, PendingCountTracksBacklogUnderConcurrentSubmits) {
  // 2 workers, every task gated: once both workers hold a task, everything
  // else must sit in the queue — the backlog signal admission control sheds
  // on. Submissions come from 4 threads concurrently.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  constexpr int kTasks = 12;
  constexpr int kSubmitters = 4;

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasks / kSubmitters; ++i) {
        pool.Submit([&] {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
        });
      }
    });
  }
  for (auto& t : submitters) t.join();

  // Both workers eventually block inside a task; the rest stay pending.
  for (int spin = 0; spin < 2000 && pool.InFlightCount() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.InFlightCount(), 2u);
  EXPECT_EQ(pool.PendingCount(), static_cast<size_t>(kTasks) - 2);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.WaitIdle();
  EXPECT_EQ(pool.PendingCount(), 0u);
  EXPECT_EQ(pool.InFlightCount(), 0u);
}

// --------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, ElapsedIsNonNegativeAndGrows) {
  Stopwatch sw;
  const double t1 = sw.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(sw.ElapsedSeconds(), t1);
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

// ----------------------------------------------------------------- Logging

TEST(LoggingTest, ParseLogLevelNameAcceptsAliasesCaseInsensitively) {
  LogLevel level = LogLevel::kNone;
  EXPECT_TRUE(ParseLogLevelName("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevelName("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevelName("Warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevelName("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevelName("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevelName("none", &level));
  EXPECT_EQ(level, LogLevel::kNone);
  // Junk is rejected and leaves the output untouched.
  level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevelName("verbose", &level));
  EXPECT_FALSE(ParseLogLevelName("", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
}

TEST(LoggingTest, InitLoggingFromEnvHonorsLevelAndJsonSwitch) {
  const LogLevel saved_level = GetLogLevel();
  const LogFormat saved_format = GetLogFormat();

  setenv("SLICETUNER_LOG_LEVEL", "error", 1);
  setenv("SLICETUNER_LOG_JSON", "1", 1);
  InitLoggingFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  EXPECT_EQ(GetLogFormat(), LogFormat::kJson);

  // A typo'd level must not change anything (a daemon cannot be silenced
  // by a misspelled env var), and an absent JSON switch leaves the format
  // alone.
  setenv("SLICETUNER_LOG_LEVEL", "eror", 1);
  unsetenv("SLICETUNER_LOG_JSON");
  SetLogFormat(LogFormat::kText);
  InitLoggingFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  EXPECT_EQ(GetLogFormat(), LogFormat::kText);

  unsetenv("SLICETUNER_LOG_LEVEL");
  SetLogLevel(saved_level);
  SetLogFormat(saved_format);
}

TEST(LoggingTest, FormatLogLineTextMode) {
  const std::string line = internal_logging::FormatLogLine(
      LogFormat::kText, LogLevel::kWarning, "src/serve/server.cc", 42,
      "queue full");
  EXPECT_EQ(line, "[WARN server.cc:42] queue full");
}

TEST(LoggingTest, FormatLogLineJsonModeIsParseableAndEscapes) {
  const std::string line = internal_logging::FormatLogLine(
      LogFormat::kJson, LogLevel::kError, "store.cc", 7,
      "path \"a\\b\" broke");
  const auto doc = json::Value::Parse(line);
  ASSERT_TRUE(doc.ok()) << line;
  EXPECT_EQ(doc->GetString("level"), "ERROR");
  EXPECT_EQ(doc->GetString("src"), "store.cc:7");
  EXPECT_EQ(doc->GetString("msg"), "path \"a\\b\" broke");
  EXPECT_GT(doc->GetInt("ts_ms"), 0);
}

TEST(LoggingTest, JsonModeCarriesActiveTraceId) {
  {
    trace::TraceScope scope(0x00000000deadbeefULL, "s1");
    const std::string line = internal_logging::FormatLogLine(
        LogFormat::kJson, LogLevel::kInfo, "server.cc", 9, "handling");
    const auto doc = json::Value::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_EQ(doc->GetString("trace_id"), "00000000deadbeef");
  }
  // Outside a request scope the field is omitted entirely (not "").
  const std::string bare = internal_logging::FormatLogLine(
      LogFormat::kJson, LogLevel::kInfo, "server.cc", 9, "idle");
  const auto doc = json::Value::Parse(bare);
  ASSERT_TRUE(doc.ok()) << bare;
  EXPECT_FALSE(doc->Has("trace_id"));
}

}  // namespace
}  // namespace slicetuner
