// The Learning Curve Estimator (Section 4): trains models on subsets of the
// training data and fits per-slice power-law curves to the measured
// validation losses. Implements both the efficient amortized scheme of
// Section 4.2 (subsample X% of *all* slices at once; O(K) trainings) and the
// exhaustive scheme (subsample one slice at a time; O(|S| * K) trainings).

#ifndef SLICETUNER_CORE_LEARNING_CURVE_H_
#define SLICETUNER_CORE_LEARNING_CURVE_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "curvefit/fitter.h"
#include "curvefit/power_law.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace slicetuner {

struct LearningCurveOptions {
  /// Number of subset sizes K (the paper uses 10).
  int num_points = 8;
  /// Smallest subset fraction of each slice.
  double min_fraction = 0.15;
  /// Minimum rows kept per slice in any subset (keeps tiny slices evaluable).
  size_t min_subset = 4;
  /// Bootstrap draws averaged per curve (paper: 5).
  int num_curve_draws = 3;
  /// Section 4.2: false = efficient amortized estimation (default),
  /// true = exhaustive per-slice estimation.
  bool exhaustive = false;
  /// Parallelize the model trainings over the thread pool. false is
  /// shorthand for num_threads = 1 (the serial fallback).
  bool parallel = true;
  /// Engine lanes for the Monte-Carlo grid: 1 = serial on the calling
  /// thread, 0 = every pool worker, N > 1 = at most N lanes. Fitted
  /// parameters are identical at any setting (see common/parallel_for.h).
  int num_threads = 0;
  uint64_t seed = 99;
  /// When non-empty, only these slices are estimated; the others receive
  /// default (unreliable) curves. In exhaustive mode their trainings are
  /// skipped entirely — the curve engine's partial-refit hook. Each listed
  /// slice's fitted curve is bit-identical to the one a full run with the
  /// same seed would produce.
  std::vector<int> slices_to_estimate;
};

/// The fitted curve of one slice plus the raw measured points behind it.
struct SliceCurveEstimate {
  PowerLawCurve curve;
  std::vector<CurvePoint> points;
  bool reliable = true;  // false when the fit fell back to a default curve
};

/// The full estimation output.
struct CurveEstimationResult {
  std::vector<SliceCurveEstimate> slices;
  int model_trainings = 0;
  double wall_seconds = 0.0;
  /// Subset-model time (build, train, per-slice validation) summed over
  /// every training; trainings run in parallel lanes, so this can exceed
  /// wall_seconds.
  double train_seconds = 0.0;
  /// Time spent fitting the per-slice power-law curves.
  double fit_seconds = 0.0;
};

/// Estimates the learning curve of every slice in [0, num_slices).
/// `train` and `validation` must be sliced consistently. Slices with no
/// training rows receive a default flat curve flagged unreliable.
Result<CurveEstimationResult> EstimateLearningCurves(
    const Dataset& train, const Dataset& validation, int num_slices,
    const ModelSpec& model_spec, const TrainerOptions& trainer,
    const LearningCurveOptions& options);

}  // namespace slicetuner

#endif  // SLICETUNER_CORE_LEARNING_CURVE_H_
