// SliceTuner: the public facade of the library (Figure 4 of the paper).
// Holds the sliced training data and a validation set, estimates learning
// curves, suggests per-slice acquisition amounts, and can drive a full
// acquisition loop against a DataSource.

#ifndef SLICETUNER_CORE_SLICE_TUNER_H_
#define SLICETUNER_CORE_SLICE_TUNER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/baselines.h"
#include "core/iterative.h"
#include "core/learning_curve.h"
#include "core/metrics.h"
#include "core/one_shot.h"
#include "data/acquisition.h"
#include "data/cost.h"
#include "data/dataset.h"
#include "engine/curve_engine.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace slicetuner {

/// Facade options: the model family, its (frozen) hyperparameters, how
/// curves are estimated, and the loss/fairness balance lambda.
struct SliceTunerOptions {
  ModelSpec model_spec;
  TrainerOptions trainer;
  LearningCurveOptions curve_options;
  double lambda = 1.0;
  /// Cache fitted curves between estimation calls so acquisition rounds
  /// only re-fit slices whose data changed (see engine/curve_engine.h).
  bool cache_curves = true;
};

class SliceTuner {
 public:
  /// Validates inputs: non-empty train/validation, consistent dims, slice
  /// ids within [0, num_slices).
  static Result<SliceTuner> Create(Dataset train, Dataset validation,
                                   int num_slices,
                                   SliceTunerOptions options);

  /// Estimates the learning curve of every slice from the current data.
  Result<CurveEstimationResult> EstimateCurves() const;

  /// One-shot suggestion: how many examples to acquire per slice for
  /// `budget`, without acquiring anything.
  Result<OneShotPlan> Suggest(const CostFunction& cost, double budget) const;

  /// Runs the iterative algorithm (Algorithm 1), growing the training data
  /// with examples pulled from `source`.
  Result<IterativeResult> Acquire(DataSource* source, double budget,
                                  const IterativeOptions& iterative_options);

  /// One-shot acquisition: plan once with the whole budget, then acquire.
  Result<IterativeResult> AcquireOneShot(DataSource* source, double budget);

  /// Baseline acquisition (Uniform / Water filling / Proportional).
  Result<IterativeResult> AcquireBaseline(DataSource* source, double budget,
                                          BaselineKind kind);

  /// Merges externally-acquired rows into the training data (dims must
  /// match, slice ids within range). The curve cache keys on slice content,
  /// so the next EstimateCurves re-fits only the slices `rows` touched —
  /// the incremental-maintenance path long-lived serving sessions ride when
  /// a client resubmits with appended data (src/serve/).
  Status AppendTrainingData(const Dataset& rows);

  /// Trains a fresh model on the current training data and evaluates the
  /// per-slice losses and unfairness on the validation set.
  Result<SliceMetrics> Evaluate(uint64_t seed) const;

  const Dataset& train() const { return train_; }
  const Dataset& validation() const { return validation_; }
  int num_slices() const { return num_slices_; }
  std::vector<size_t> SliceSizes() const {
    return train_.SliceSizes(num_slices_);
  }
  const SliceTunerOptions& options() const { return options_; }

  /// The tuner's curve-estimation engine (per-slice curve cache + parallel
  /// fan-out). Exposed for cache statistics and manual invalidation.
  engine::CurveEstimationEngine& curve_engine() { return *curve_engine_; }
  const engine::CurveEstimationEngine& curve_engine() const {
    return *curve_engine_;
  }

  /// Installs a curve cache (CurveEstimationEngine::SerializeState shape)
  /// onto this tuner. Entries are validated against content hashes of the
  /// *current* training data; any entry whose slice content differs is
  /// dropped (that slice re-fits cold on the next EstimateCurves). Returns
  /// the number of slices restored warm.
  Result<size_t> RestoreCurveCache(const json::Value& cache);

 private:
  SliceTuner(Dataset train, Dataset validation, int num_slices,
             SliceTunerOptions options);

  Dataset train_;
  Dataset validation_;
  int num_slices_;
  SliceTunerOptions options_;
  // shared_ptr keeps SliceTuner copyable; copies share the curve cache.
  // Content-hash keys keep that correct for sequential use, but copies that
  // diverge and estimate concurrently will serialize on the engine lock and
  // evict each other's entries — give such copies their own tuner instead.
  std::shared_ptr<engine::CurveEstimationEngine> curve_engine_;
};

}  // namespace slicetuner

#endif  // SLICETUNER_CORE_SLICE_TUNER_H_
