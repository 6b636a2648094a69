// Process-wide metrics: lock-light counters, gauges, and log-bucketed
// latency histograms (docs/OBSERVABILITY.md is the catalog and the
// normative description of naming, semantics, and the overhead budget).
//
// Design constraints, in order:
//   1. Hot-path writes (Counter::Add, Histogram::Record) must be cheap
//      enough to leave in production code paths: one relaxed atomic RMW on
//      a cache-line-padded shard chosen per thread, no locks, no
//      allocation. bench/micro_obs.cc gates the cost in CI.
//   2. Reads (SnapshotJson, TextExposition) may be arbitrarily slow; they
//      merge the shards. A snapshot taken while writers are active is a
//      consistent-enough point-in-time view: each shard cell is atomic, so
//      totals are the sum of values that were each individually valid.
//   3. Registration is rare and may lock. Metric handles returned by the
//      registry are stable for the registry's lifetime, so instrumented
//      code resolves each handle once (function-local static) and then
//      records through the pointer forever.
//
// The whole subsystem can be switched off (MetricsRegistry::SetEnabled):
// record paths then reduce to one relaxed atomic load and a branch, which
// is what the <3% serve-overhead comparison in bench/micro_obs.cc measures
// against.

#ifndef SLICETUNER_OBS_METRICS_H_
#define SLICETUNER_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace slicetuner {
namespace obs {

/// Monotonic wall time in nanoseconds (steady_clock); the time base every
/// histogram and span in the process records in.
uint64_t MonotonicNanos();

namespace internal_obs {

/// Shard count for counters and histograms. Threads are striped across
/// shards round-robin at first use; contention only occurs when more than
/// kNumShards threads collide on the same metric, and even then it is an
/// atomic RMW, never a lock.
constexpr size_t kNumShards = 8;

/// Stable per-thread shard index in [0, kNumShards).
size_t ThisThreadShard();

/// Process-wide on/off switch, checked with a relaxed load in every record
/// path. Off = record calls return immediately (reads still work).
extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace internal_obs

/// Monotonically increasing event count. Writes are relaxed atomic adds on
/// a padded per-thread shard; Value() sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    if (!internal_obs::Enabled()) return;
    shards_[internal_obs::ThisThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[internal_obs::kNumShards];
};

/// A point-in-time double (queue depth, cache hit ratio, bytes). Last
/// writer wins; no sharding — gauges are set from cold paths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) {
    if (!internal_obs::Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(double delta);

  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged view of a histogram at one instant (Histogram::Snapshot).
/// Quantiles are estimated by linear interpolation inside the selected
/// bucket, so an estimate never leaves the bucket that holds the exact
/// order statistic (tests/obs_test.cc asserts this containment).
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Upper bound of the highest non-empty bucket (<= 12.5% above the true
  /// maximum recorded value).
  double max = 0.0;
};

/// Log-bucketed latency histogram over uint64 values (nanoseconds by
/// convention). Buckets: exact below 8; above, each power-of-two octave is
/// split into 8 linear sub-buckets, so relative bucket width is <= 1/8
/// everywhere and 496 buckets cover the full uint64 range. Recording is a
/// branch-light index computation plus two relaxed adds on a per-thread
/// shard.
class Histogram {
 public:
  static constexpr size_t kSubBits = 3;           // sub-buckets per octave
  static constexpr size_t kSub = 1u << kSubBits;  // = 8
  static constexpr size_t kNumBuckets = 496;

  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    if (!internal_obs::Enabled()) return;
    Shard& shard = shards_[internal_obs::ThisThreadShard()];
    shard.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// The bucket `value` lands in. Exposed so tests can assert that a
  /// quantile estimate and the exact order statistic share a bucket.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSub) return static_cast<size_t>(value);
    const int pos = 63 - __builtin_clzll(value);
    const int shift = pos - static_cast<int>(kSubBits);
    return (static_cast<size_t>(shift + 1) << kSubBits) +
           static_cast<size_t>((value >> shift) - kSub);
  }

  /// Inclusive [lo, hi] value range of bucket `index`.
  static void BucketBounds(size_t index, uint64_t* lo, uint64_t* hi);

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> sum{0};
  };
  std::unique_ptr<Shard[]> shards_;
};

/// Get-or-create registry of named metrics. `Global()` is the process-wide
/// instance everything in src/ records into; separate instances exist for
/// tests. Names follow Prometheus conventions (snake_case, `_total`
/// counters, `_ns` histograms); an optional single label distinguishes
/// variants of one name (e.g. serve_stage_ns{stage="parse"}).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Process-wide record-path switch (default on). Off: every Add/Record/
  /// Set in the process becomes a no-op; registration and reads still work.
  static void SetEnabled(bool enabled);
  static bool Enabled() { return internal_obs::Enabled(); }

  /// Get-or-create. The returned pointer is stable for the registry's
  /// lifetime; resolve once and cache it. The (name, label_key,
  /// label_value) triple identifies the metric; registering the same triple
  /// twice returns the same object. A name must not be reused across
  /// metric kinds.
  Counter* counter(const std::string& name, const std::string& label_key = "",
                   const std::string& label_value = "");
  Gauge* gauge(const std::string& name, const std::string& label_key = "",
               const std::string& label_value = "");
  Histogram* histogram(const std::string& name,
                       const std::string& label_key = "",
                       const std::string& label_value = "");

  /// {"counters":{key:N,...},"gauges":{key:x,...},
  ///  "histograms":{key:{count,sum,mean,p50,p90,p99,max},...}} where key is
  /// `name` or `name{label="value"}`. The payload of the `metrics` protocol
  /// verb (docs/PROTOCOL.md). A non-empty `prefix` keeps only metrics whose
  /// name starts with it (e.g. "serve_") — the cheap form hot pollers like
  /// slicetuner_top use.
  json::Value SnapshotJson(const std::string& prefix = "") const;

  /// Prometheus-style text exposition: one `name{label} value` line per
  /// counter/gauge, and per histogram the quantiles plus `_count`/`_sum`
  /// series. Written by `slicetuner_serve --metrics-dump` on shutdown.
  std::string TextExposition() const;

  /// Zeroes every registered metric (registrations survive). For benches
  /// that isolate measurement windows.
  void Reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string label_key;
    std::string label_value;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const std::string& label_key,
                      const std::string& label_value, Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace slicetuner

#endif  // SLICETUNER_OBS_METRICS_H_
