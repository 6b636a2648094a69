// Synthetic per-slice data generators standing in for the paper's datasets
// (Fashion-MNIST, Mixed-MNIST, UTKFace, AdultCensus). Each slice draws
// features from a Gaussian mixture whose separation, spread, and label noise
// control the learning curve's level (b), steepness (a), and floor (c), and
// whose shared centroids control cross-slice influence. See DESIGN.md for
// the substitution rationale.

#ifndef SLICETUNER_DATA_SYNTHETIC_H_
#define SLICETUNER_DATA_SYNTHETIC_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "nn/model.h"
#include "nn/trainer.h"

namespace slicetuner {

/// One mixture component: examples of `label` centered at `mean`.
struct GaussianComponent {
  std::vector<double> mean;
  double sigma = 1.0;
  int label = 0;
  double weight = 1.0;
};

/// Generative model for one slice: a mixture over components plus label
/// noise (probability of replacing the label with a uniform random class),
/// which sets the irreducible-loss floor of the slice's learning curve.
struct SliceModel {
  std::vector<GaussianComponent> components;
  double label_noise = 0.0;
};

/// Draws a uniformly random direction of norm `scale` (dim Gaussian draws,
/// normalized with a 1e-12 floor). Shared by the preset worlds, the sim
/// subsystem's scenario compiler, and its mean-shift drift injector so all
/// three sample directions identically.
std::vector<double> RandomCentroid(Rng* rng, size_t dim, double scale);

/// a + beta * b, element-wise.
std::vector<double> AddVec(const std::vector<double>& a,
                           const std::vector<double>& b, double beta);

/// Generates examples for any slice on demand (an infinite data source).
class SyntheticGenerator {
 public:
  SyntheticGenerator() : dim_(0), num_classes_(0) {}
  SyntheticGenerator(size_t dim, int num_classes,
                     std::vector<SliceModel> slices);

  size_t dim() const { return dim_; }
  int num_classes() const { return num_classes_; }
  int num_slices() const { return static_cast<int>(slices_.size()); }

  /// Draws one example from `slice`'s mixture.
  Example Generate(int slice, Rng* rng) const;

  /// Generate into `*out`, reusing its feature storage: the same draws in
  /// the same order, without allocating once `out` has held an example.
  void GenerateInto(int slice, Rng* rng, Example* out) const;

  /// Draws counts[s] examples for each slice s.
  Dataset GenerateDataset(const std::vector<size_t>& counts, Rng* rng) const;

  const SliceModel& slice_model(int slice) const {
    return slices_[static_cast<size_t>(slice)];
  }

  /// Mutable access for scripted distribution changes (sim drift injectors).
  /// Future draws from `slice` follow the mutated model; rows generated
  /// before the mutation are unaffected.
  SliceModel* mutable_slice_model(int slice) {
    return &slices_[static_cast<size_t>(slice)];
  }

 private:
  size_t dim_;
  int num_classes_;
  std::vector<SliceModel> slices_;
};

/// A complete experimental configuration mirroring one paper dataset:
/// generator, slice names, model architecture, trainer hyperparameters, and
/// per-slice acquisition costs.
struct DatasetPreset {
  std::string name;
  std::vector<std::string> slice_names;
  SyntheticGenerator generator;
  ModelSpec model_spec;
  TrainerOptions trainer;
  std::vector<double> costs;  // per-slice C(s)

  int num_slices() const { return generator.num_slices(); }
};

/// Fashion-MNIST stand-in: 10 label slices with heterogeneous difficulty
/// (a few confusable class pairs, like shirt/pullover/coat).
DatasetPreset MakeFashionLike(uint64_t seed = 7);

/// Mixed-MNIST stand-in: 20 slices from two sources — 10 "fashion" slices
/// (noisy, flat curves) and 10 "digit" slices (clean, steep curves).
DatasetPreset MakeMixedLike(uint64_t seed = 11);

/// UTKFace stand-in: 8 race x gender slices, 4-class race labels; same-race
/// slices share centroids so acquisition for one influences the other
/// (Figure 7's White_Male / White_Female effect).
DatasetPreset MakeFaceLike(uint64_t seed = 13);

/// AdultCensus stand-in: 4 demographic slices, binary label with a linear
/// boundary and high label noise (flat curves, Figure 8d), trained with
/// logistic regression (no hidden layers).
DatasetPreset MakeCensusLike(uint64_t seed = 17);

/// Lookup by name ("fashion", "mixed", "face", "census").
Result<DatasetPreset> MakePresetByName(const std::string& name,
                                       uint64_t seed = 0);

/// All four presets in paper order.
std::vector<DatasetPreset> AllPresets();

}  // namespace slicetuner

#endif  // SLICETUNER_DATA_SYNTHETIC_H_
