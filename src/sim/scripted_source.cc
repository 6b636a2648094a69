#include "sim/scripted_source.h"

#include <cmath>

namespace slicetuner {
namespace sim {

namespace {

// Seed-stream indices off the scenario root. Each consumer owns a stream,
// and per-round bases are spaced 2^32 apart (matching the evaluation and
// bandit bases in simulator.cc), so no schedule length or event count can
// make two consumers collide.
constexpr uint64_t kInitialStream = 1;
constexpr uint64_t kValidationStream = 2;
constexpr uint64_t kAcquireStreamBase = uint64_t{1} << 32;  // + round
constexpr uint64_t kDriftStreamBase = uint64_t{4} << 32;    // + event index

}  // namespace

ScriptedSource::ScriptedSource(ScenarioSpec spec)
    : spec_(std::move(spec)),
      generator_(spec_.BuildGenerator()),
      cost_(std::make_unique<TableCost>(spec_.costs)),
      root_(spec_.seed),
      acquire_rng_(root_.ForkSeed(kAcquireStreamBase)) {}

Dataset ScriptedSource::GenerateInitial() const {
  Rng rng = root_.Fork(kInitialStream);
  return generator_.GenerateDataset(spec_.initial_sizes, &rng);
}

Dataset ScriptedSource::GenerateValidation() const {
  Rng rng = root_.Fork(kValidationStream);
  return generator_.GenerateDataset(
      std::vector<size_t>(static_cast<size_t>(spec_.num_slices),
                          spec_.val_per_slice),
      &rng);
}

int ScriptedSource::BeginRound(int round) {
  // Per-round acquisition stream: what a method acquires in round r never
  // shifts the draws another method (or the same method after a different
  // plan) sees in round r + 1.
  acquire_rng_ =
      Rng(root_.ForkSeed(kAcquireStreamBase + static_cast<uint64_t>(round)));
  int applied = 0;
  for (size_t i = 0; i < spec_.drift.size(); ++i) {
    const DriftEvent& event = spec_.drift[i];
    if (event.round <= current_round_ || event.round > round) continue;
    // The shift direction of event i is a pure function of (seed, i).
    Rng drift_rng = root_.Fork(kDriftStreamBase + i);
    const int first = event.slice < 0 ? 0 : event.slice;
    const int last = event.slice < 0 ? spec_.num_slices - 1 : event.slice;
    for (int s = first; s <= last; ++s) {
      SliceModel* model = generator_.mutable_slice_model(s);
      switch (event.kind) {
        case DriftKind::kMeanShift: {
          const std::vector<double> dir =
              RandomCentroid(&drift_rng, spec_.dim, event.magnitude);
          for (auto& component : model->components) {
            for (size_t d = 0; d < spec_.dim; ++d) {
              component.mean[d] += dir[d];
            }
          }
          break;
        }
        case DriftKind::kSigmaScale:
          for (auto& component : model->components) {
            component.sigma *= event.magnitude;
          }
          break;
        case DriftKind::kLabelNoise:
          model->label_noise = event.magnitude;
          break;
      }
    }
    ++applied;
    ++drift_events_applied_;
  }
  current_round_ = round;
  return applied;
}

Dataset ScriptedSource::Acquire(int slice, size_t count) {
  Dataset batch(generator_.dim());
  batch.Reserve(count);
  const double mistake_rate =
      spec_.acquisition_label_noise.empty()
          ? 0.0
          : spec_.acquisition_label_noise[static_cast<size_t>(slice)];
  Example example;
  for (size_t i = 0; i < count; ++i) {
    generator_.GenerateInto(slice, &acquire_rng_, &example);
    if (mistake_rate > 0.0 && acquire_rng_.Bernoulli(mistake_rate)) {
      example.label = static_cast<int>(acquire_rng_.UniformInt(
          static_cast<uint64_t>(generator_.num_classes())));
    }
    (void)batch.Append(example);
  }
  return batch;
}

}  // namespace sim
}  // namespace slicetuner
