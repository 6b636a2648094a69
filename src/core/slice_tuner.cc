#include "core/slice_tuner.h"

#include "common/string_util.h"

namespace slicetuner {

SliceTuner::SliceTuner(Dataset train, Dataset validation, int num_slices,
                       SliceTunerOptions options)
    : train_(std::move(train)),
      validation_(std::move(validation)),
      num_slices_(num_slices),
      options_(std::move(options)) {
  engine::CurveEngineOptions engine_options;
  engine_options.enable_cache = options_.cache_curves;
  engine_options.num_threads = options_.curve_options.num_threads;
  curve_engine_ =
      std::make_shared<engine::CurveEstimationEngine>(engine_options);
}

Result<SliceTuner> SliceTuner::Create(Dataset train, Dataset validation,
                                      int num_slices,
                                      SliceTunerOptions options) {
  if (train.empty()) {
    return Status::InvalidArgument("SliceTuner: empty training data");
  }
  if (validation.empty()) {
    return Status::InvalidArgument("SliceTuner: empty validation data");
  }
  if (num_slices <= 0) {
    return Status::InvalidArgument("SliceTuner: num_slices must be positive");
  }
  if (train.dim() != validation.dim()) {
    return Status::InvalidArgument(
        StrFormat("SliceTuner: train dim %zu != validation dim %zu",
                  train.dim(), validation.dim()));
  }
  if (options.model_spec.input_dim != train.dim()) {
    return Status::InvalidArgument(
        StrFormat("SliceTuner: model input dim %zu != data dim %zu",
                  options.model_spec.input_dim, train.dim()));
  }
  for (size_t i = 0; i < train.size(); ++i) {
    if (train.slice(i) < 0 || train.slice(i) >= num_slices) {
      return Status::OutOfRange(
          StrFormat("SliceTuner: train row %zu has slice id %d outside "
                    "[0, %d)",
                    i, train.slice(i), num_slices));
    }
  }
  return SliceTuner(std::move(train), std::move(validation), num_slices,
                    std::move(options));
}

Result<CurveEstimationResult> SliceTuner::EstimateCurves() const {
  return curve_engine_->Estimate(train_, validation_, num_slices_,
                                 options_.model_spec, options_.trainer,
                                 options_.curve_options);
}

Result<OneShotPlan> SliceTuner::Suggest(const CostFunction& cost,
                                        double budget) const {
  OneShotOptions one_shot;
  one_shot.lambda = options_.lambda;
  one_shot.curve_options = options_.curve_options;
  return PlanOneShot(train_, validation_, num_slices_, options_.model_spec,
                     options_.trainer, CostVector(cost, num_slices_), budget,
                     one_shot);
}

Result<IterativeResult> SliceTuner::Acquire(
    DataSource* source, double budget,
    const IterativeOptions& iterative_options) {
  IterativeOptions opts = iterative_options;
  opts.lambda = options_.lambda;
  opts.curve_options = options_.curve_options;
  opts.curve_engine = curve_engine_.get();
  return RunIterative(&train_, validation_, num_slices_, options_.model_spec,
                      options_.trainer, source, budget, opts);
}

Result<IterativeResult> SliceTuner::AcquireOneShot(DataSource* source,
                                                   double budget) {
  return RunOneShotAcquisition(&train_, validation_, num_slices_,
                               options_.model_spec, options_.trainer, source,
                               budget, options_.lambda,
                               options_.curve_options);
}

Result<IterativeResult> SliceTuner::AcquireBaseline(DataSource* source,
                                                    double budget,
                                                    BaselineKind kind) {
  const std::vector<double> costs = CostVector(source->cost(), num_slices_);
  ST_ASSIGN_OR_RETURN(
      std::vector<long long> plan,
      BaselineAllocation(kind, SliceSizes(), costs, budget));
  IterativeResult result;
  result.acquired = plan;
  result.iterations = 1;
  for (size_t s = 0; s < plan.size(); ++s) {
    if (plan[s] <= 0) continue;
    const Dataset batch =
        source->Acquire(static_cast<int>(s), static_cast<size_t>(plan[s]));
    ST_RETURN_NOT_OK(train_.Merge(batch));
    result.budget_spent += static_cast<double>(plan[s]) * costs[s];
  }
  return result;
}

Status SliceTuner::AppendTrainingData(const Dataset& rows) {
  if (rows.empty()) return Status::OK();
  if (rows.dim() != train_.dim()) {
    return Status::InvalidArgument(
        StrFormat("AppendTrainingData: row dim %zu != train dim %zu",
                  rows.dim(), train_.dim()));
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows.slice(i) < 0 || rows.slice(i) >= num_slices_) {
      return Status::OutOfRange(
          StrFormat("AppendTrainingData: row %zu has slice id %d outside "
                    "[0, %d)",
                    i, rows.slice(i), num_slices_));
    }
  }
  return train_.Merge(rows);
}

Result<SliceMetrics> SliceTuner::Evaluate(uint64_t seed) const {
  return TrainAndEvaluate(train_, validation_, num_slices_,
                          options_.model_spec, options_.trainer, seed);
}

Result<size_t> SliceTuner::RestoreCurveCache(const json::Value& cache) {
  const std::vector<uint64_t> hashes =
      engine::HashAllSliceContents(train_, num_slices_);
  return curve_engine_->RestoreState(cache, hashes);
}

}  // namespace slicetuner
