// CurveEstimationEngine: incremental, parallel learning-curve estimation.
//
// Learning-curve estimation dominates Slice Tuner's runtime: every call
// retrains the model on many (slice x trial x subset-size) grid cells. The
// engine attacks this on two axes:
//
//  1. Parallelism — the Monte-Carlo grid is fanned out through
//     ParallelFor (common/parallel_for.h) with per-cell RNG streams forked
//     from the root seed, so fitted parameters are bit-identical at any
//     thread count.
//  2. Incrementality — in the spirit of incremental view maintenance, fitted
//     (b, a) parameters are cached per slice keyed by a content hash of the
//     slice's rows. After an acquisition round only the slices whose own
//     rows changed are treated as stale; in exhaustive mode only those
//     slices are re-trained (K trainings per stale slice instead of
//     K x |S|), and when nothing changed the whole result is served from
//     cache with zero trainings. In efficient (amortized) mode any stale
//     slice forces a full K-training re-run — those K models are trained on
//     joint subsets of all slices, so every slice's curve refreshes for
//     free.
//
//     The per-slice key is a deliberate approximation in exhaustive mode:
//     a slice's measured losses also depend on the *other* slices' rows
//     (they stay whole in its training subsets), so a cached curve reflects
//     the cross-slice context it was fitted under. This mirrors the paper's
//     own modeling assumption — One-shot treats slices as independent with
//     per-slice curves (Section 5.1) — and is the trade that makes
//     incremental maintenance possible at all. Set cache_curves = false on
//     SliceTuner (or enable_cache = false here) for the paper-faithful
//     full re-estimation every round.
//
// The cache is transparently invalidated when the estimation configuration
// (subset grid, model, trainer, validation data) changes. The RNG seed is
// deliberately *not* part of the cache key: reusing a curve fitted under an
// earlier seed for an unchanged slice is exactly the incremental-maintenance
// contract. For a fixed root seed and acquisition trajectory, results are
// still fully deterministic.

#ifndef SLICETUNER_ENGINE_CURVE_ENGINE_H_
#define SLICETUNER_ENGINE_CURVE_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/learning_curve.h"

namespace slicetuner {
namespace engine {

/// Content hash of one slice's rows (features, labels) in `data`. Two
/// datasets agree on a slice's hash iff the slice holds the same rows in the
/// same order.
uint64_t HashSliceContent(const Dataset& data, int slice);

/// HashSliceContent for every slice in [0, num_slices) in a single pass
/// over the data.
std::vector<uint64_t> HashAllSliceContents(const Dataset& data,
                                           int num_slices);

/// Content hash of an entire dataset (rows, labels, slice ids).
uint64_t HashDatasetContent(const Dataset& data);

/// uint64 values (hashes, fingerprints) cross the JSON boundary as 16-digit
/// hex strings: readable in snapshot files and immune to int64 sign games.
std::string HexU64(uint64_t value);
Result<uint64_t> ParseHexU64(const std::string& text);

struct CurveEngineOptions {
  /// Overrides LearningCurveOptions::num_threads when non-zero.
  int num_threads = 0;
  /// Disable to force every Estimate() through a fresh full estimation.
  bool enable_cache = true;
};

struct CurveEngineStats {
  size_t estimate_calls = 0;
  size_t served_from_cache = 0;  // calls answered with zero trainings
  size_t full_runs = 0;          // complete re-estimations
  size_t partial_refits = 0;     // exhaustive-mode stale-slice-only runs
  size_t slices_refit = 0;       // slices re-estimated across all calls
  size_t slices_reused = 0;      // slices served from cache across all calls
  long long trainings_saved = 0;  // vs. uncached estimation of every call
};

class CurveEstimationEngine {
 public:
  explicit CurveEstimationEngine(CurveEngineOptions options = {});

  /// Drop-in replacement for EstimateLearningCurves with caching. Not
  /// reentrant: concurrent sessions should each own an engine (SliceTuner
  /// does); a shared engine serializes callers. A non-empty
  /// options.slices_to_estimate bypasses the cache entirely (a partial
  /// result must neither be served from nor written into it).
  Result<CurveEstimationResult> Estimate(const Dataset& train,
                                         const Dataset& validation,
                                         int num_slices,
                                         const ModelSpec& model_spec,
                                         const TrainerOptions& trainer,
                                         const LearningCurveOptions& options);

  /// Forces the slice (or everything) stale regardless of content hashes.
  void Invalidate(int slice);
  void InvalidateAll();

  /// Snapshot of the cache counters (copied under the engine lock: safe
  /// while another thread is inside Estimate()).
  CurveEngineStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Serializes the fitted-curve cache for a durable snapshot
  /// (docs/STATE.md): the config fingerprint plus every valid entry's
  /// content hash, curve parameters, measured points, and reliability flag.
  /// All doubles round-trip bit-exactly. Takes the engine lock, so it is
  /// safe (but may briefly block) while another thread estimates.
  json::Value SerializeState() const;

  /// Restores a SerializeState() document. Defensive by construction: only
  /// entries whose stored content hash equals `expected_hashes[slice]` —
  /// the hashes of the data the caller actually holds — are installed; any
  /// other slice stays cold and simply re-fits on the next Estimate.
  /// Returns the number of entries installed.
  Result<size_t> RestoreState(const json::Value& state,
                              const std::vector<uint64_t>& expected_hashes);

 private:
  struct Entry {
    bool valid = false;
    uint64_t content_hash = 0;
    SliceCurveEstimate estimate;
  };

  // Hash of everything (besides slice contents and the seed) that the fitted
  // curves depend on; a mismatch wipes the cache.
  uint64_t ConfigFingerprint(const Dataset& validation, int num_slices,
                             const ModelSpec& model_spec,
                             const TrainerOptions& trainer,
                             const LearningCurveOptions& options) const;

  CurveEngineOptions options_;
  std::vector<Entry> cache_;
  uint64_t fingerprint_ = 0;
  bool has_fingerprint_ = false;
  CurveEngineStats stats_;
  mutable std::mutex mu_;
};

}  // namespace engine
}  // namespace slicetuner

#endif  // SLICETUNER_ENGINE_CURVE_ENGINE_H_
