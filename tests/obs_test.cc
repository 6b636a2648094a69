// Unit tests for src/obs: counter/gauge/histogram semantics, the
// log-bucket geometry, quantile accuracy against an exact sorted reference,
// registry snapshots (including snapshot-while-writing, the race the
// sanitizer jobs exercise), spans, the text exposition, and the flight
// recorder (ring wraparound, multi-thread merge, snapshot-while-writing,
// the signal-safe dump format).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "common/trace_context.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timer.h"

namespace slicetuner {
namespace obs {
namespace {

// ----------------------------------------------------------------- Counter

TEST(CounterTest, AddsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, EightThreadHammerSumsExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kOpsPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

TEST(CounterTest, DisabledRegistryDropsWrites) {
  Counter counter;
  MetricsRegistry::SetEnabled(false);
  counter.Add(100);
  EXPECT_EQ(counter.Value(), 0u);
  MetricsRegistry::SetEnabled(true);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), 1u);
}

// ------------------------------------------------------------------- Gauge

TEST(GaugeTest, SetAddResetLastWriterWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.5);
  EXPECT_EQ(gauge.Value(), 3.5);
  gauge.Add(-1.5);
  EXPECT_EQ(gauge.Value(), 2.0);
  gauge.Set(7.0);
  EXPECT_EQ(gauge.Value(), 7.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

// ------------------------------------------------------------- Bucket math

TEST(HistogramTest, BucketBoundsRoundTrip) {
  // Every probed value must land in a bucket whose [lo, hi] contains it,
  // with relative width <= 1/8 once values leave the exact range.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 300; ++v) probes.push_back(v);
  for (int shift = 8; shift < 63; ++shift) {
    const uint64_t base = 1ull << shift;
    probes.push_back(base - 1);
    probes.push_back(base);
    probes.push_back(base + base / 3);
  }
  for (const uint64_t v : probes) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << "value " << v;
    uint64_t lo = 0;
    uint64_t hi = 0;
    Histogram::BucketBounds(index, &lo, &hi);
    EXPECT_LE(lo, v) << "value " << v << " bucket " << index;
    EXPECT_GE(hi, v) << "value " << v << " bucket " << index;
    if (lo >= Histogram::kSub) {
      EXPECT_LE(hi - lo + 1, lo / 8 + 1)
          << "bucket " << index << " too wide: [" << lo << ", " << hi << "]";
    } else {
      EXPECT_EQ(lo, hi);  // exact buckets below 8
    }
  }
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  size_t last = 0;
  for (uint64_t v = 0; v < 100'000; v = v < 64 ? v + 1 : v + v / 7) {
    const size_t index = Histogram::BucketIndex(v);
    EXPECT_GE(index, last) << "value " << v;
    last = index;
  }
}

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, CountSumMeanExact) {
  Histogram histogram;
  uint64_t expected_sum = 0;
  for (uint64_t v = 0; v < 1000; ++v) {
    histogram.Record(v * 17);
    expected_sum += v * 17;
  }
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 1000u);
  EXPECT_EQ(snapshot.sum, static_cast<double>(expected_sum));
  EXPECT_DOUBLE_EQ(snapshot.mean,
                   static_cast<double>(expected_sum) / 1000.0);
}

TEST(HistogramTest, EightThreadHammerKeepsExactCountAndSum) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // sum = kOpsPerThread * (1 + 2 + ... + kThreads)
  EXPECT_EQ(snapshot.sum, static_cast<double>(kOpsPerThread) *
                              (kThreads * (kThreads + 1) / 2));
}

// Randomized quantile correctness: the interpolated estimate must share a
// bucket with the exact order statistic — so it is within one bucket width
// (<= 12.5% relative) of the truth — across distributions and seeds.
TEST(HistogramTest, QuantilesMatchSortedReference) {
  const double quantiles[] = {0.5, 0.9, 0.99};
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    for (int dist = 0; dist < 3; ++dist) {
      Histogram histogram;
      std::vector<uint64_t> values;
      values.reserve(20'000);
      for (int i = 0; i < 20'000; ++i) {
        uint64_t v = 0;
        switch (dist) {
          case 0:
            v = rng.UniformInt(static_cast<uint64_t>(1'000'000));
            break;
          case 1:
            v = static_cast<uint64_t>(rng.LogNormal(8.0, 2.5));
            break;
          default:
            v = static_cast<uint64_t>(rng.Exponential(1e-5));
            break;
        }
        values.push_back(v);
        histogram.Record(v);
      }
      std::sort(values.begin(), values.end());
      const HistogramSnapshot snapshot = histogram.Snapshot();
      const double estimates[] = {snapshot.p50, snapshot.p90, snapshot.p99};
      for (int q = 0; q < 3; ++q) {
        const double rank = quantiles[q] * (values.size() - 1);
        const uint64_t exact = values[static_cast<size_t>(rank)];
        uint64_t lo = 0;
        uint64_t hi = 0;
        Histogram::BucketBounds(Histogram::BucketIndex(exact), &lo, &hi);
        EXPECT_GE(estimates[q], static_cast<double>(lo))
            << "seed " << seed << " dist " << dist << " q " << quantiles[q]
            << " exact " << exact;
        EXPECT_LE(estimates[q], static_cast<double>(hi))
            << "seed " << seed << " dist " << dist << " q " << quantiles[q]
            << " exact " << exact;
      }
      // max is the upper bound of the highest non-empty bucket.
      uint64_t max_lo = 0;
      uint64_t max_hi = 0;
      Histogram::BucketBounds(Histogram::BucketIndex(values.back()), &max_lo,
                              &max_hi);
      EXPECT_EQ(snapshot.max, static_cast<double>(max_hi));
    }
  }
}

TEST(HistogramTest, ResetZeroes) {
  Histogram histogram;
  histogram.Record(100);
  histogram.Record(200);
  histogram.Reset();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_EQ(snapshot.sum, 0.0);
  EXPECT_EQ(snapshot.p50, 0.0);
  EXPECT_EQ(snapshot.max, 0.0);
}

// ---------------------------------------------------------------- Registry

TEST(RegistryTest, GetOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter* a = registry.counter("test_total");
  Counter* b = registry.counter("test_total");
  EXPECT_EQ(a, b);
  Counter* parse = registry.counter("stage_total", "stage", "parse");
  Counter* admit = registry.counter("stage_total", "stage", "admit");
  EXPECT_NE(parse, admit);
  EXPECT_EQ(parse, registry.counter("stage_total", "stage", "parse"));
}

TEST(RegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.counter("mixed_name"), nullptr);
  EXPECT_EQ(registry.gauge("mixed_name"), nullptr);
  EXPECT_EQ(registry.histogram("mixed_name"), nullptr);
}

TEST(RegistryTest, SnapshotJsonShape) {
  MetricsRegistry registry;
  registry.counter("reqs_total")->Add(3);
  registry.gauge("depth")->Set(2.5);
  Histogram* h = registry.histogram("lat_ns", "stage", "parse");
  h->Record(100);
  h->Record(200);

  const json::Value doc = registry.SnapshotJson();
  ASSERT_TRUE(doc.is_object());
  const json::Value* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("reqs_total"), 3);
  const json::Value* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->GetDouble("depth"), 2.5);
  const json::Value* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* lat = histograms->Find("lat_ns{stage=\"parse\"}");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->GetInt("count"), 2);
  EXPECT_EQ(lat->GetDouble("sum"), 300.0);
  EXPECT_GT(lat->GetDouble("p50"), 0.0);
  EXPECT_TRUE(lat->Has("p90"));
  EXPECT_TRUE(lat->Has("p99"));
  EXPECT_TRUE(lat->Has("mean"));
  EXPECT_TRUE(lat->Has("max"));
}

TEST(RegistryTest, TextExpositionFormat) {
  MetricsRegistry registry;
  registry.counter("events_total")->Add(7);
  registry.gauge("queue_depth")->Set(4);
  registry.histogram("wait_ns")->Record(1000);

  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("events_total 7"), std::string::npos) << text;
  EXPECT_NE(text.find("queue_depth 4"), std::string::npos) << text;
  EXPECT_NE(text.find("wait_ns_count 1"), std::string::npos) << text;
  EXPECT_NE(text.find("wait_ns_sum 1000"), std::string::npos) << text;
  EXPECT_NE(text.find("wait_ns{quantile=\"0.5\"}"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_ns{quantile=\"0.99\"}"), std::string::npos)
      << text;
}

TEST(RegistryTest, ResetZeroesEverythingButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c_total");
  Gauge* g = registry.gauge("g");
  Histogram* h = registry.histogram("h_ns");
  c->Add(5);
  g->Set(5);
  h->Record(5);
  registry.Reset();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(registry.counter("c_total"), c);  // registration survived
}

// The race the TSan job exercises: snapshots and text expositions taken
// while eight writer threads hammer the same metrics must be well-formed,
// and the totals must be exact once the writers join.
TEST(RegistryTest, SnapshotWhileWritingIsSafe) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("race_total");
  Histogram* histogram = registry.histogram("race_ns");
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40'000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Add();
        histogram->Record(static_cast<uint64_t>(i));
      }
    });
  }
  uint64_t last_count = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const json::Value doc = registry.SnapshotJson();
    const json::Value* histograms = doc.Find("histograms");
    ASSERT_NE(histograms, nullptr);
    const uint64_t count = static_cast<uint64_t>(
        histograms->Find("race_ns")->GetInt("count"));
    EXPECT_GE(count, last_count);  // monotone while writers only add
    last_count = count;
    const std::string text = registry.TextExposition();
    EXPECT_NE(text.find("race_total"), std::string::npos);
    // Late registration while snapshots run must also be safe.
    registry.counter("race_late_total")->Add();
    if (count >= static_cast<uint64_t>(kThreads) * kOpsPerThread) {
      stop.store(true, std::memory_order_relaxed);
    }
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(histogram->Snapshot().count,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
}

// ------------------------------------------------------------------- Spans

TEST(SpanTest, StagesAccumulateAndSerialize) {
  Span span("round");
  span.RecordStage("estimate", 2'000'000);  // 2 ms
  span.RecordStage("acquire", 1'000'000);
  span.RecordStage("estimate", 3'000'000);  // accumulates onto estimate

  const json::Value doc = span.ToJson(/*total_ns=*/7'000'000);
  EXPECT_EQ(doc.GetString("name"), "round");
  EXPECT_DOUBLE_EQ(doc.GetDouble("total_ms"), 7.0);
  const json::Value* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->GetDouble("estimate_ms"), 5.0);
  EXPECT_DOUBLE_EQ(stages->GetDouble("acquire_ms"), 1.0);
  EXPECT_FALSE(stages->Has("plan_ms"));  // never recorded -> absent
}

// ------------------------------------------------------------- ScopedTimer
//
// The timer records into Recorder::Global(); each test runs under its own
// trace id and reads back only that trace's events.

std::vector<RecordedEvent> TraceEvents(uint64_t trace_id) {
  return Recorder::Global().Snapshot(/*session_filter=*/"", trace_id);
}

TEST(ScopedTimerTest, FeedsEverySinkOnceWithOneValue) {
  constexpr uint64_t kTrace = 0x71e3000000000001ull;
  Histogram histogram;
  Span span("op");
  uint64_t elapsed = 0;
  {
    trace::TraceScope scope(kTrace, "timer");
    ScopedTimer timer(&histogram, EventKind::kPlan, &span, "work");
    elapsed = timer.Stop();
    EXPECT_EQ(timer.Stop(), elapsed);  // later stops feed nothing
  }  // nor does the destructor of a stopped timer

  const HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, static_cast<double>(elapsed));
  const std::vector<RecordedEvent> events = TraceEvents(kTrace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kPlan);
  EXPECT_EQ(events[0].arg, static_cast<int64_t>(elapsed));
  EXPECT_EQ(events[0].session, "timer");
  const json::Value doc = span.ToJson(elapsed);
  const json::Value* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->GetDouble("work_ms"), NanosToMillis(elapsed));
}

TEST(ScopedTimerTest, DestructorStopsAnUnstoppedTimer) {
  constexpr uint64_t kTrace = 0x71e3000000000002ull;
  Histogram histogram;
  Span span("op");
  {
    trace::TraceScope scope(kTrace, "timer");
    ScopedTimer first(&histogram, EventKind::kAcquire, &span, "work");
    ScopedTimer second(&histogram, EventKind::kAcquire, &span, "work");
  }
  EXPECT_EQ(histogram.Snapshot().count, 2u);
  const std::vector<RecordedEvent> events = TraceEvents(kTrace);
  ASSERT_EQ(events.size(), 2u);
  const json::Value doc = span.ToJson(0);
  const json::Value* stages = doc.Find("stages");
  ASSERT_NE(stages, nullptr);
  // The stage accumulates both intervals: the sum of the two event args.
  EXPECT_EQ(stages->GetDouble("work_ms"),
            NanosToMillis(static_cast<uint64_t>(events[0].arg) +
                          static_cast<uint64_t>(events[1].arg)));
}

TEST(ScopedTimerTest, ToleratesNullSinks) {
  constexpr uint64_t kTrace = 0x71e3000000000003ull;
  trace::TraceScope scope(kTrace, "timer");
  { ScopedTimer timer; }  // must not crash
  { ScopedTimer timer(nullptr, std::nullopt, nullptr, nullptr); }
  ScopedTimer timer;
  const uint64_t elapsed = timer.Stop();
  EXPECT_EQ(timer.Stop(), elapsed);
  EXPECT_TRUE(TraceEvents(kTrace).empty());  // no event kind, no record
}

// ---------------------------------------------------------------- Recorder
//
// Each test uses its own Recorder instance (not Global()) so rings and
// cursors start empty regardless of what other tests recorded.

TEST(RecorderTest, RecordAndSnapshotRoundTrips) {
  Recorder recorder;
  recorder.Record(EventKind::kRequestRecv, 0xabcd, "s1", 7);
  recorder.Record(EventKind::kAdmit, 0xabcd, "s1", 3);
  recorder.Record(EventKind::kJobStart, 0xabcd, "s1", -250);

  const std::vector<RecordedEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kRequestRecv);
  EXPECT_EQ(events[1].kind, EventKind::kAdmit);
  EXPECT_EQ(events[2].kind, EventKind::kJobStart);
  EXPECT_EQ(events[0].trace_id, 0xabcdu);
  EXPECT_EQ(events[0].session, "s1");
  EXPECT_EQ(events[0].arg, 7);
  EXPECT_EQ(events[2].arg, -250);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(recorder.RingCount(), 1u);
}

TEST(RecorderTest, SessionTruncatesAtMaxLen) {
  Recorder recorder;
  const std::string long_name(2 * Recorder::kMaxSessionLen, 'x');
  recorder.Record(EventKind::kAdmit, 1, long_name.c_str());
  recorder.Record(EventKind::kAdmit, 2, nullptr);
  const std::vector<RecordedEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].session,
            std::string(Recorder::kMaxSessionLen, 'x'));
  EXPECT_EQ(events[1].session, "");
}

TEST(RecorderTest, WraparoundKeepsMostRecentRecords) {
  Recorder recorder;
  constexpr int kExtra = 100;
  const int total = static_cast<int>(Recorder::kRingCapacity) + kExtra;
  for (int i = 0; i < total; ++i) {
    recorder.Record(EventKind::kStoreAppend, 9, "wrap", i);
  }
  const std::vector<RecordedEvent> events = recorder.Snapshot();
  // The slot holding the oldest surviving record is adjacent to the write
  // cursor, so the reader conservatively drops it: capacity - 1 survive.
  ASSERT_EQ(events.size(), Recorder::kRingCapacity - 1);
  // What survives is exactly the newest records, still in order.
  EXPECT_EQ(events.front().arg, total - static_cast<int>(events.size()));
  EXPECT_EQ(events.back().arg, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, events[i - 1].arg + 1);
  }
}

TEST(RecorderTest, FiltersAndLimitKeepMostRecent) {
  Recorder recorder;
  for (int i = 0; i < 10; ++i) {
    recorder.Record(EventKind::kAdmit, 1, "a", i);
    recorder.Record(EventKind::kAdmit, 2, "b", i);
  }
  EXPECT_EQ(recorder.Snapshot("a").size(), 10u);
  EXPECT_EQ(recorder.Snapshot("", 2).size(), 10u);
  EXPECT_EQ(recorder.Snapshot("a", 2).size(), 0u);
  const std::vector<RecordedEvent> last = recorder.Snapshot("b", 0, 3);
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last.back().arg, 9);
  EXPECT_EQ(last.front().arg, 7);
}

TEST(RecorderTest, DisabledDropsRecords) {
  Recorder recorder;
  recorder.SetEnabled(false);
  recorder.Record(EventKind::kAdmit, 1, "s");
  EXPECT_TRUE(recorder.Snapshot().empty());
  recorder.SetEnabled(true);
  recorder.Record(EventKind::kAdmit, 1, "s");
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(RecorderTest, RecordHereTakesTraceContext) {
  Recorder recorder;
  {
    trace::TraceScope scope(0x77, "ctx-session");
    recorder.RecordHere(EventKind::kDispatch, 4);
  }
  recorder.RecordHere(EventKind::kCancel);  // outside any scope
  const std::vector<RecordedEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, 0x77u);
  EXPECT_EQ(events[0].session, "ctx-session");
  EXPECT_EQ(events[1].trace_id, 0u);
  EXPECT_EQ(events[1].session, "");
}

TEST(RecorderTest, MultiThreadMergeIsTimestampSorted) {
  Recorder recorder;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      const std::string session = "t" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(EventKind::kRoundStart,
                        static_cast<uint64_t>(t + 1), session.c_str(), i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<RecordedEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  // Per trace filter: each thread's records all present, args in order
  // (same ring => strictly increasing timestamps).
  for (int t = 0; t < kThreads; ++t) {
    const std::vector<RecordedEvent> mine =
        recorder.Snapshot("", static_cast<uint64_t>(t + 1));
    ASSERT_EQ(mine.size(), static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(mine[static_cast<size_t>(i)].arg, i);
    }
  }
  EXPECT_EQ(recorder.RingCount(), static_cast<size_t>(kThreads));
}

TEST(RecorderTest, SnapshotWhileWritingIsSafe) {
  Recorder recorder;
  std::atomic<bool> stop{false};
  std::thread writer([&recorder, &stop] {
    int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      recorder.Record(EventKind::kEstimate, 0x5150, "w", i++);
    }
  });
  for (int pass = 0; pass < 50; ++pass) {
    const std::vector<RecordedEvent> events = recorder.Snapshot();
    // Every surfaced record must be fully formed — never a torn slot.
    for (const RecordedEvent& event : events) {
      EXPECT_EQ(event.kind, EventKind::kEstimate);
      EXPECT_EQ(event.trace_id, 0x5150u);
      EXPECT_EQ(event.session, "w");
      EXPECT_GE(event.arg, 0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(RecorderTest, SnapshotJsonShapeAndTruncation) {
  Recorder recorder;
  for (int i = 0; i < 5; ++i) {
    recorder.Record(EventKind::kFrameDone, 0xbeef, "s", i);
  }
  const json::Value full = recorder.SnapshotJson();
  const json::Value* events = full.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 5u);
  EXPECT_FALSE(full.GetBool("truncated", true));
  const json::Value& first = events->at(0);
  EXPECT_EQ(first.GetString("kind"), "frame_done");
  EXPECT_EQ(first.GetString("trace_id"), "000000000000beef");
  EXPECT_EQ(first.GetString("session"), "s");
  EXPECT_EQ(first.GetInt("arg"), 0);
  EXPECT_GT(first.GetInt("ts_ns"), 0);

  const json::Value limited = recorder.SnapshotJson("", 0, 2);
  ASSERT_NE(limited.Find("events"), nullptr);
  EXPECT_EQ(limited.Find("events")->size(), 2u);
  EXPECT_TRUE(limited.GetBool("truncated"));
  EXPECT_EQ(limited.Find("events")->at(1).GetInt("arg"), 4);
}

TEST(RecorderTest, DumpToWritesParsableLines) {
  Recorder recorder;
  recorder.Record(EventKind::kJobStart, 0xdeadbeef, "dump-me", 12);
  recorder.Record(EventKind::kStoreSync, 0, nullptr, -3);

  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  EXPECT_EQ(recorder.DumpTo(fileno(file)), 2u);
  std::rewind(file);
  char buffer[4096];
  const size_t read = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  buffer[read] = '\0';

  // Line format: ts_ns thread kind_name trace_id_hex session arg
  std::istringstream lines{std::string(buffer)};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  {
    std::istringstream fields(line);
    uint64_t ts = 0;
    uint32_t thread = 0;
    std::string kind, trace, session;
    int64_t arg = 0;
    fields >> ts >> thread >> kind >> trace >> session >> arg;
    EXPECT_GT(ts, 0u);
    EXPECT_EQ(kind, "job_start");
    EXPECT_EQ(trace, "00000000deadbeef");
    EXPECT_EQ(session, "dump-me");
    EXPECT_EQ(arg, 12);
  }
  ASSERT_TRUE(std::getline(lines, line));
  {
    std::istringstream fields(line);
    uint64_t ts = 0;
    uint32_t thread = 0;
    std::string kind, trace, session;
    int64_t arg = 0;
    fields >> ts >> thread >> kind >> trace >> session >> arg;
    EXPECT_EQ(kind, "store_sync");
    EXPECT_EQ(trace, "0000000000000000");
    EXPECT_EQ(session, "-");  // empty session dumps as "-"
    EXPECT_EQ(arg, -3);
  }
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(RecorderTest, ResetZeroesRingsButKeepsRegistrations) {
  Recorder recorder;
  recorder.Record(EventKind::kAdmit, 1, "s");
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
  recorder.Reset();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.RingCount(), 1u);
  recorder.Record(EventKind::kAdmit, 2, "s");
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

// --------------------------------------------------------- Trace context

TEST(TraceContextTest, MintFormatParseRoundTrip) {
  const uint64_t a = trace::MintTraceId();
  const uint64_t b = trace::MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  const std::string hex = trace::FormatTraceId(a);
  EXPECT_EQ(hex.size(), 16u);
  EXPECT_EQ(trace::ParseTraceId(hex), a);
  EXPECT_EQ(trace::FormatTraceId(0), "");
  EXPECT_EQ(trace::ParseTraceId(""), 0u);
  EXPECT_EQ(trace::ParseTraceId("xyz"), 0u);
  EXPECT_EQ(trace::ParseTraceId("00000000000000ff"), 0xffu);
}

TEST(TraceContextTest, ScopesNestAndRestore) {
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
  {
    trace::TraceScope outer(11, "outer");
    EXPECT_EQ(trace::CurrentTraceId(), 11u);
    EXPECT_STREQ(trace::CurrentContext().session, "outer");
    {
      trace::TraceScope inner(22, "inner");
      EXPECT_EQ(trace::CurrentTraceId(), 22u);
      EXPECT_STREQ(trace::CurrentContext().session, "inner");
    }
    EXPECT_EQ(trace::CurrentTraceId(), 11u);
    EXPECT_STREQ(trace::CurrentContext().session, "outer");
  }
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace slicetuner
