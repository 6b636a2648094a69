#include "core/learning_curve.h"

#include <algorithm>
#include <cmath>

#include "common/parallel_for.h"
#include "common/stopwatch.h"
#include "core/metrics.h"

namespace slicetuner {

namespace {

// Subset fractions for the K measurement points, spanning
// [min_fraction, 1.0].
std::vector<double> SubsetFractions(const LearningCurveOptions& options) {
  std::vector<double> fractions;
  const int k = std::max(options.num_points, 2);
  fractions.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    fractions.push_back(options.min_fraction +
                        (1.0 - options.min_fraction) * static_cast<double>(i) /
                            static_cast<double>(k - 1));
  }
  return fractions;
}

// Fallback when a slice's points cannot support a power-law fit: a nearly
// flat curve anchored at the last observed loss (or 1.0). Flat curves make
// the optimizer treat the slice as having no cost-benefit, which matches the
// paper's graceful degradation story (Section 6.3.4).
SliceCurveEstimate DefaultCurve(const std::vector<CurvePoint>& points) {
  SliceCurveEstimate est;
  est.points = points;
  est.reliable = false;
  double loss = 1.0;
  double size = 10.0;
  if (!points.empty()) {
    loss = std::max(points.back().loss, 1e-3);
    size = std::max(points.back().size, 1.0);
  }
  est.curve.a = 0.05;
  est.curve.b = loss * std::pow(size, est.curve.a);
  return est;
}

struct MeasuredRun {
  std::vector<double> slice_sizes;   // subset size per slice
  std::vector<double> slice_losses;  // validation loss per slice
  bool ok = false;
  double seconds = 0.0;  // build + train + evaluate
};

// Trains one model on `subset` and evaluates per-slice validation losses.
MeasuredRun TrainAndMeasure(const Dataset& subset, const Dataset& validation,
                            int num_slices, const ModelSpec& model_spec,
                            TrainerOptions trainer, uint64_t seed) {
  Stopwatch timer;
  MeasuredRun run;
  Rng rng(seed);
  Model model = BuildModel(model_spec, &rng);
  trainer.seed = rng();
  Result<TrainLog> log =
      Train(&model, subset.FeatureMatrix(), subset.Labels(), trainer);
  const Result<SliceMetrics> metrics =
      log.ok() ? EvaluatePerSlice(&model, validation, num_slices)
               : Result<SliceMetrics>(log.status());
  run.seconds = timer.ElapsedSeconds();
  if (!metrics.ok()) return run;
  const std::vector<size_t> sizes = subset.SliceSizes(num_slices);
  run.slice_sizes.assign(sizes.begin(), sizes.end());
  run.slice_losses = metrics->slice_losses;
  run.ok = true;
  return run;
}

// mask[s] = 1 when slice s should be estimated.
std::vector<char> EstimationMask(int num_slices,
                                 const LearningCurveOptions& options) {
  std::vector<char> mask(static_cast<size_t>(num_slices),
                         options.slices_to_estimate.empty() ? 1 : 0);
  for (int s : options.slices_to_estimate) {
    if (s >= 0 && s < num_slices) mask[static_cast<size_t>(s)] = 1;
  }
  return mask;
}

// Stream-id namespace for per-slice curve fits, disjoint from the training
// grid's stream ids (which are < num_slices * K).
constexpr uint64_t kFitStreamBase = uint64_t{1} << 62;

}  // namespace

Result<CurveEstimationResult> EstimateLearningCurves(
    const Dataset& train, const Dataset& validation, int num_slices,
    const ModelSpec& model_spec, const TrainerOptions& trainer,
    const LearningCurveOptions& options) {
  if (train.empty()) {
    return Status::InvalidArgument("EstimateLearningCurves: empty train set");
  }
  if (validation.empty()) {
    return Status::InvalidArgument(
        "EstimateLearningCurves: empty validation set");
  }
  if (num_slices <= 0) {
    return Status::InvalidArgument(
        "EstimateLearningCurves: num_slices must be positive");
  }

  Stopwatch timer;
  const std::vector<double> fractions = SubsetFractions(options);
  const size_t k = fractions.size();
  // Every random decision below derives from `master` via a stable stream
  // id, never by drawing in submission order. The grid cell (slice, point)
  // always receives the same stream, so parallel execution, any thread
  // count, and partial (slices_to_estimate) runs all produce bit-identical
  // fitted parameters.
  const Rng master(options.seed);
  const std::vector<char> mask = EstimationMask(num_slices, options);

  // Inter-slice fan-out: the training grid fans out across the shared pool.
  // Each training's tensor kernels would also fan out (intra-op row
  // blocking), but they see ParallelForDepth() > 0 inside these lanes and
  // stay serial — the two levels share one ThreadPool budget instead of
  // multiplying thread counts.
  ParallelOptions parallel_options;
  parallel_options.num_threads = options.parallel ? options.num_threads : 1;

  CurveEstimationResult result;
  std::vector<std::vector<CurvePoint>> points(
      static_cast<size_t>(num_slices));

  if (!options.exhaustive) {
    // Efficient (Section 4.2): one model per subset fraction, all slices
    // subsampled together; every model yields one point for every slice.
    std::vector<MeasuredRun> runs(k);
    ParallelFor(
        k,
        [&](size_t i) {
          Rng rng = master.Fork(i);
          const Dataset subset = train.StratifiedSample(
              fractions[i], options.min_subset, num_slices, &rng);
          runs[i] = TrainAndMeasure(subset, validation, num_slices,
                                    model_spec, trainer, rng());
        },
        parallel_options);
    for (const MeasuredRun& run : runs) {
      result.train_seconds += run.seconds;
      if (!run.ok) continue;
      ++result.model_trainings;
      for (int s = 0; s < num_slices; ++s) {
        const size_t idx = static_cast<size_t>(s);
        if (mask[idx] && run.slice_sizes[idx] > 0.0) {
          points[idx].push_back(
              CurvePoint{run.slice_sizes[idx], run.slice_losses[idx]});
        }
      }
    }
  } else {
    // Exhaustive: subsample one slice at a time, keep the rest whole, and
    // read off only that slice's loss. K model trainings per estimated
    // slice. The stream id s * K + i keys the grid cell, so a partial run
    // re-derives exactly the seeds a full run would give those cells.
    struct Job {
      int slice;
      double fraction;
      uint64_t stream;
    };
    std::vector<Job> jobs;
    for (int s = 0; s < num_slices; ++s) {
      if (!mask[static_cast<size_t>(s)]) continue;
      for (size_t i = 0; i < k; ++i) {
        jobs.push_back(Job{s, fractions[i],
                           static_cast<uint64_t>(s) * k + i});
      }
    }
    std::vector<MeasuredRun> runs(jobs.size());
    ParallelFor(
        jobs.size(),
        [&](size_t j) {
          const Job& job = jobs[j];
          Rng rng = master.Fork(job.stream);
          // Subsample only job.slice; all other slices stay complete.
          const std::vector<size_t> slice_rows =
              train.SliceIndices(job.slice);
          std::vector<size_t> keep;
          if (!slice_rows.empty()) {
            size_t take = static_cast<size_t>(std::ceil(
                job.fraction * static_cast<double>(slice_rows.size())));
            take = std::max(take, std::min(options.min_subset,
                                           slice_rows.size()));
            const std::vector<size_t> chosen =
                rng.SampleWithoutReplacement(slice_rows.size(), take);
            for (size_t c : chosen) keep.push_back(slice_rows[c]);
          }
          for (size_t r = 0; r < train.size(); ++r) {
            if (train.slice(r) != job.slice) keep.push_back(r);
          }
          std::sort(keep.begin(), keep.end());
          const Dataset subset = train.Subset(keep);
          runs[j] = TrainAndMeasure(subset, validation, num_slices,
                                    model_spec, trainer, rng());
        },
        parallel_options);
    for (size_t j = 0; j < jobs.size(); ++j) {
      result.train_seconds += runs[j].seconds;
      if (!runs[j].ok) continue;
      ++result.model_trainings;
      const size_t idx = static_cast<size_t>(jobs[j].slice);
      if (runs[j].slice_sizes[idx] > 0.0) {
        points[idx].push_back(CurvePoint{runs[j].slice_sizes[idx],
                                         runs[j].slice_losses[idx]});
      }
    }
  }

  // Fit a curve per slice; weight points by subset size and average
  // bootstrap draws (Section 4.1). Fits are cheap relative to training, so
  // they stay on the calling thread.
  const Stopwatch fit_timer;
  result.slices.resize(static_cast<size_t>(num_slices));
  for (int s = 0; s < num_slices; ++s) {
    const size_t idx = static_cast<size_t>(s);
    if (!mask[idx]) {
      result.slices[idx] = DefaultCurve(points[idx]);
      continue;
    }
    std::sort(points[idx].begin(), points[idx].end(),
              [](const CurvePoint& a, const CurvePoint& b) {
                return a.size < b.size;
              });
    FitOptions fit_options;
    fit_options.num_draws = options.num_curve_draws;
    fit_options.seed = master.ForkSeed(kFitStreamBase + idx);
    Result<PowerLawCurve> fit =
        FitPowerLawAveraged(points[idx], fit_options);
    if (fit.ok() && fit->a > 1e-5) {
      result.slices[idx].curve = *fit;
      result.slices[idx].points = points[idx];
      result.slices[idx].reliable = true;
    } else {
      result.slices[idx] = DefaultCurve(points[idx]);
    }
  }
  result.fit_seconds = fit_timer.ElapsedSeconds();
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace slicetuner
