#include "engine/curve_engine.h"

#include <algorithm>
#include <cstring>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "curvefit/fitter.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timer.h"

namespace slicetuner {
namespace engine {

namespace {

// Process-wide mirrors of the per-engine CurveEngineStats, so the curve
// cache's behavior is visible through the `metrics` verb without walking
// sessions (docs/OBSERVABILITY.md, "Engine").
struct EngineMetrics {
  obs::Counter* estimate_calls =
      obs::MetricsRegistry::Global().counter("engine_estimate_calls_total");
  obs::Counter* served_from_cache = obs::MetricsRegistry::Global().counter(
      "engine_cache_served_total");
  obs::Counter* partial_refits = obs::MetricsRegistry::Global().counter(
      "engine_cache_partial_refits_total");
  obs::Counter* full_runs =
      obs::MetricsRegistry::Global().counter("engine_cache_full_runs_total");
  obs::Counter* slices_refit =
      obs::MetricsRegistry::Global().counter("engine_slices_refit_total");
  obs::Counter* slices_reused =
      obs::MetricsRegistry::Global().counter("engine_slices_reused_total");
  obs::Counter* trainings_saved = obs::MetricsRegistry::Global().counter(
      "engine_trainings_saved_total");
  obs::Gauge* cache_hit_ratio =
      obs::MetricsRegistry::Global().gauge("engine_cache_hit_ratio");
  obs::Histogram* estimate_ns =
      obs::MetricsRegistry::Global().histogram("engine_estimate_ns");
  obs::Histogram* train_ns =
      obs::MetricsRegistry::Global().histogram("engine_train_ns");
  obs::Histogram* fit_ns =
      obs::MetricsRegistry::Global().histogram("engine_fit_ns");

  // Splits an estimation that trained into subset-model training and
  // curve fitting.
  void RecordTrainFit(const CurveEstimationResult& result) {
    train_ns->Record(static_cast<uint64_t>(result.train_seconds * 1e9));
    fit_ns->Record(static_cast<uint64_t>(result.fit_seconds * 1e9));
  }

  // Cache hit ratio = slices served warm / slices considered, across the
  // process lifetime.
  void UpdateHitRatio() {
    const double reused = static_cast<double>(slices_reused->Value());
    const double refit = static_cast<double>(slices_refit->Value());
    if (reused + refit > 0.0) {
      cache_hit_ratio->Set(reused / (reused + refit));
    }
  }
};

EngineMetrics& Metrics() {
  static EngineMetrics& metrics = *new EngineMetrics();
  return metrics;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline void Mix(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

inline void MixDouble(uint64_t* h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(h, bits);
}

void MixRow(uint64_t* h, const Dataset& data, size_t row) {
  Mix(h, static_cast<uint64_t>(data.label(row)));
  const double* f = data.features(row);
  for (size_t d = 0; d < data.dim(); ++d) MixDouble(h, f[d]);
}

// Trainings an uncached estimation of this call would have performed.
long long UncachedTrainings(int num_slices,
                            const LearningCurveOptions& options) {
  const long long k = std::max(options.num_points, 2);
  return options.exhaustive ? k * num_slices : k;
}

}  // namespace

std::string HexU64(uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

Result<uint64_t> ParseHexU64(const std::string& text) {
  if (text.size() != 16) {
    return Status::InvalidArgument("expected 16 hex digits, got '" + text +
                                   "'");
  }
  uint64_t value = 0;
  for (const char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return Status::InvalidArgument("expected 16 hex digits, got '" + text +
                                     "'");
    }
    value = (value << 4) | digit;
  }
  return value;
}

uint64_t HashSliceContent(const Dataset& data, int slice) {
  uint64_t h = kFnvOffset;
  Mix(&h, static_cast<uint64_t>(slice));
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.slice(i) != slice) continue;
    MixRow(&h, data, i);
  }
  return h;
}

std::vector<uint64_t> HashAllSliceContents(const Dataset& data,
                                           int num_slices) {
  // One pass with a running accumulator per slice; agrees with
  // HashSliceContent(data, s) for every s because rows are visited in the
  // same (dataset) order either way.
  std::vector<uint64_t> hashes(static_cast<size_t>(num_slices), kFnvOffset);
  for (int s = 0; s < num_slices; ++s) {
    Mix(&hashes[static_cast<size_t>(s)], static_cast<uint64_t>(s));
  }
  for (size_t i = 0; i < data.size(); ++i) {
    const int s = data.slice(i);
    if (s < 0 || s >= num_slices) continue;
    MixRow(&hashes[static_cast<size_t>(s)], data, i);
  }
  return hashes;
}

uint64_t HashDatasetContent(const Dataset& data) {
  uint64_t h = kFnvOffset;
  Mix(&h, data.size());
  Mix(&h, data.dim());
  for (size_t i = 0; i < data.size(); ++i) {
    Mix(&h, static_cast<uint64_t>(data.slice(i)));
    MixRow(&h, data, i);
  }
  return h;
}

CurveEstimationEngine::CurveEstimationEngine(CurveEngineOptions options)
    : options_(options) {}

uint64_t CurveEstimationEngine::ConfigFingerprint(
    const Dataset& validation, int num_slices, const ModelSpec& model_spec,
    const TrainerOptions& trainer, const LearningCurveOptions& options) const {
  uint64_t h = kFnvOffset;
  Mix(&h, static_cast<uint64_t>(num_slices));
  Mix(&h, static_cast<uint64_t>(options.num_points));
  MixDouble(&h, options.min_fraction);
  Mix(&h, options.min_subset);
  Mix(&h, static_cast<uint64_t>(options.num_curve_draws));
  Mix(&h, options.exhaustive ? 1 : 0);
  Mix(&h, model_spec.input_dim);
  Mix(&h, model_spec.num_classes);
  for (size_t w : model_spec.hidden) Mix(&h, w);
  Mix(&h, model_spec.residual_blocks);
  Mix(&h, model_spec.residual_hidden);
  MixDouble(&h, model_spec.dropout);
  Mix(&h, static_cast<uint64_t>(trainer.epochs));
  Mix(&h, trainer.batch_size);
  MixDouble(&h, trainer.learning_rate);
  MixDouble(&h, trainer.weight_decay);
  Mix(&h, static_cast<uint64_t>(trainer.optimizer));
  MixDouble(&h, trainer.loss_floor);
  MixDouble(&h, trainer.lr_decay);
  MixDouble(&h, trainer.clip_norm);
  Mix(&h, HashDatasetContent(validation));
  return h;
}

void CurveEstimationEngine::Invalidate(int slice) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t idx = static_cast<size_t>(slice);
  if (idx < cache_.size()) cache_[idx].valid = false;
}

void CurveEstimationEngine::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Entry& e : cache_) e.valid = false;
}

Result<CurveEstimationResult> CurveEstimationEngine::Estimate(
    const Dataset& train, const Dataset& validation, int num_slices,
    const ModelSpec& model_spec, const TrainerOptions& trainer,
    const LearningCurveOptions& options) {
  // One `estimate` record per call, stamped with the calling thread's trace
  // context (the dispatcher installs the job's trace before entering the
  // engine).
  obs::ScopedTimer estimate_timer(Metrics().estimate_ns,
                                  obs::EventKind::kEstimate);
  LearningCurveOptions effective = options;
  if (options_.num_threads != 0) effective.num_threads = options_.num_threads;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.estimate_calls;
  Metrics().estimate_calls->Add();

  // A caller-supplied slice filter is honored as-is, bypassing the cache:
  // a partial result must neither be served from nor written into it.
  if (!options_.enable_cache || num_slices <= 0 ||
      !options.slices_to_estimate.empty()) {
    ++stats_.full_runs;
    Metrics().full_runs->Add();
    ST_ASSIGN_OR_RETURN(
        CurveEstimationResult fresh,
        EstimateLearningCurves(train, validation, num_slices, model_spec,
                               trainer, effective));
    Metrics().RecordTrainFit(fresh);
    return fresh;
  }

  const size_t n = static_cast<size_t>(num_slices);
  const uint64_t fingerprint =
      ConfigFingerprint(validation, num_slices, model_spec, trainer, options);
  if (!has_fingerprint_ || fingerprint != fingerprint_ ||
      cache_.size() != n) {
    cache_.assign(n, Entry{});
    fingerprint_ = fingerprint;
    has_fingerprint_ = true;
  }

  const std::vector<uint64_t> hashes = HashAllSliceContents(train,
                                                            num_slices);
  std::vector<int> stale;
  for (size_t s = 0; s < n; ++s) {
    if (!cache_[s].valid || cache_[s].content_hash != hashes[s]) {
      stale.push_back(static_cast<int>(s));
    }
  }

  if (stale.empty()) {
    // Nothing changed since the last acquisition round: zero trainings.
    Stopwatch timer;
    CurveEstimationResult cached;
    cached.slices.reserve(n);
    for (const Entry& e : cache_) cached.slices.push_back(e.estimate);
    cached.model_trainings = 0;
    cached.wall_seconds = timer.ElapsedSeconds();
    ++stats_.served_from_cache;
    stats_.slices_reused += n;
    stats_.trainings_saved += UncachedTrainings(num_slices, options);
    Metrics().served_from_cache->Add();
    Metrics().slices_reused->Add(n);
    Metrics().trainings_saved->Add(
        static_cast<uint64_t>(UncachedTrainings(num_slices, options)));
    Metrics().UpdateHitRatio();
    return cached;
  }

  if (effective.exhaustive && stale.size() < n) {
    // Incremental maintenance: re-train only the stale slices.
    LearningCurveOptions partial = effective;
    partial.slices_to_estimate = stale;
    ST_ASSIGN_OR_RETURN(
        CurveEstimationResult fresh,
        EstimateLearningCurves(train, validation, num_slices, model_spec,
                               trainer, partial));
    Metrics().RecordTrainFit(fresh);
    std::vector<char> is_stale(n, 0);
    for (int s : stale) is_stale[static_cast<size_t>(s)] = 1;
    for (size_t s = 0; s < n; ++s) {
      if (is_stale[s]) {
        // A failed fit (reliable == false) is not cached: the uncached path
        // would retry it with a fresh seed next round and likely recover.
        cache_[s] = Entry{fresh.slices[s].reliable, hashes[s],
                          fresh.slices[s]};
      } else {
        fresh.slices[s] = cache_[s].estimate;
      }
    }
    ++stats_.partial_refits;
    stats_.slices_refit += stale.size();
    stats_.slices_reused += n - stale.size();
    const long long saved =
        UncachedTrainings(num_slices, options) - fresh.model_trainings;
    stats_.trainings_saved += saved;
    Metrics().partial_refits->Add();
    Metrics().slices_refit->Add(stale.size());
    Metrics().slices_reused->Add(n - stale.size());
    if (saved > 0) {
      Metrics().trainings_saved->Add(static_cast<uint64_t>(saved));
    }
    Metrics().UpdateHitRatio();
    return fresh;
  }

  // Full re-estimation; every slice's curve refreshes.
  ST_ASSIGN_OR_RETURN(
      CurveEstimationResult fresh,
      EstimateLearningCurves(train, validation, num_slices, model_spec,
                             trainer, effective));
  Metrics().RecordTrainFit(fresh);
  for (size_t s = 0; s < n; ++s) {
    // Unreliable (failed-fit) curves stay uncached so the next call retries
    // them with that round's fresh seed.
    cache_[s] = Entry{fresh.slices[s].reliable, hashes[s], fresh.slices[s]};
  }
  ++stats_.full_runs;
  stats_.slices_refit += n;
  Metrics().full_runs->Add();
  Metrics().slices_refit->Add(n);
  Metrics().UpdateHitRatio();
  return fresh;
}

json::Value CurveEstimationEngine::SerializeState() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Value out = json::Value::Object();
  out.Set("num_slices", cache_.size());
  if (has_fingerprint_) out.Set("fingerprint", HexU64(fingerprint_));
  json::Value entries = json::Value::Array();
  for (size_t s = 0; s < cache_.size(); ++s) {
    const Entry& e = cache_[s];
    if (!e.valid) continue;
    json::Value entry = json::Value::Object();
    entry.Set("slice", s);
    entry.Set("hash", HexU64(e.content_hash));
    entry.Set("curve", PowerLawCurveToJson(e.estimate.curve));
    entry.Set("points", CurvePointsToJson(e.estimate.points));
    entry.Set("reliable", e.estimate.reliable);
    entries.Append(std::move(entry));
  }
  out.Set("entries", std::move(entries));
  return out;
}

Result<size_t> CurveEstimationEngine::RestoreState(
    const json::Value& state, const std::vector<uint64_t>& expected_hashes) {
  if (!state.is_object()) {
    return Status::InvalidArgument("curve cache state must be an object");
  }
  const json::Value* entries = state.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("curve cache state has no entries array");
  }

  std::lock_guard<std::mutex> lock(mu_);
  cache_.assign(expected_hashes.size(), Entry{});
  has_fingerprint_ = false;
  if (const json::Value* fp = state.Find("fingerprint")) {
    ST_ASSIGN_OR_RETURN(fingerprint_, ParseHexU64(fp->string_value()));
    has_fingerprint_ = true;
  }

  size_t installed = 0;
  for (const json::Value& entry : entries->items()) {
    const long long slice = entry.GetInt("slice", -1);
    if (slice < 0 ||
        static_cast<size_t>(slice) >= expected_hashes.size()) {
      continue;  // slice count changed since the snapshot; skip
    }
    ST_ASSIGN_OR_RETURN(const uint64_t hash,
                        ParseHexU64(entry.GetString("hash")));
    // The self-validation at the heart of warm restarts: an entry is only
    // trusted when it matches the data the caller reconstructed. Stale
    // entries (rows acquired after the snapshot) just stay cold.
    if (hash != expected_hashes[static_cast<size_t>(slice)]) continue;
    const json::Value* curve = entry.Find("curve");
    const json::Value* points = entry.Find("points");
    if (curve == nullptr || points == nullptr) {
      return Status::InvalidArgument(
          "curve cache entry missing curve/points");
    }
    Entry restored;
    restored.valid = true;
    restored.content_hash = hash;
    ST_ASSIGN_OR_RETURN(restored.estimate.curve,
                        PowerLawCurveFromJson(*curve));
    ST_ASSIGN_OR_RETURN(restored.estimate.points,
                        CurvePointsFromJson(*points));
    restored.estimate.reliable = entry.GetBool("reliable", true);
    cache_[static_cast<size_t>(slice)] = std::move(restored);
    ++installed;
  }
  return installed;
}

}  // namespace engine
}  // namespace slicetuner
