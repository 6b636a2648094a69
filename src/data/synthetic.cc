#include "data/synthetic.h"

#include <cmath>

#include "common/string_util.h"

namespace slicetuner {

namespace {

// Stable per-preset RNG stream ids: each preset derives its generator state
// via Rng(seed).Fork(stream) instead of ad-hoc xor salts, the same
// derivation the engine uses for per-task streams (see common/random.h).
enum PresetStream : uint64_t {
  kFashionStream = 0,
  kMixedStream = 1,
  kFaceStream = 2,
  kCensusStream = 3,
};

}  // namespace

std::vector<double> RandomCentroid(Rng* rng, size_t dim, double scale) {
  std::vector<double> v(dim);
  double norm = 0.0;
  for (auto& x : v) {
    x = rng->Normal();
    norm += x * x;
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  for (auto& x : v) x *= scale / norm;
  return v;
}

std::vector<double> AddVec(const std::vector<double>& a,
                           const std::vector<double>& b, double beta) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + beta * b[i];
  return out;
}

SyntheticGenerator::SyntheticGenerator(size_t dim, int num_classes,
                                       std::vector<SliceModel> slices)
    : dim_(dim), num_classes_(num_classes), slices_(std::move(slices)) {}

Example SyntheticGenerator::Generate(int slice, Rng* rng) const {
  Example e;
  GenerateInto(slice, rng, &e);
  return e;
}

void SyntheticGenerator::GenerateInto(int slice, Rng* rng,
                                      Example* out) const {
  const SliceModel& model = slices_[static_cast<size_t>(slice)];
  // Pick a component by weight.
  const GaussianComponent& comp =
      model.components[rng->Categorical(model.components.size(),
                                        [&model](size_t i) {
                                          return model.components[i].weight;
                                        })];
  out->slice = slice;
  out->label = comp.label;
  out->features.resize(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    out->features[i] = rng->Normal(comp.mean[i], comp.sigma);
  }
  if (model.label_noise > 0.0 && rng->Bernoulli(model.label_noise)) {
    out->label = static_cast<int>(rng->UniformInt(
        static_cast<uint64_t>(num_classes_)));
  }
}

Dataset SyntheticGenerator::GenerateDataset(const std::vector<size_t>& counts,
                                            Rng* rng) const {
  // No exact-fit reserve: a training set grows by appends afterwards, and
  // an exactly full one doubles on its first append.
  Dataset out(dim_);
  Example example;
  for (size_t s = 0; s < counts.size(); ++s) {
    for (size_t i = 0; i < counts[s]; ++i) {
      GenerateInto(static_cast<int>(s), rng, &example);
      (void)out.Append(example);
    }
  }
  return out;
}

DatasetPreset MakeFashionLike(uint64_t seed) {
  constexpr size_t kDim = 16;
  constexpr int kClasses = 10;
  Rng rng = Rng(seed).Fork(kFashionStream);

  std::vector<std::vector<double>> centroids;
  centroids.reserve(kClasses);
  for (int c = 0; c < kClasses; ++c) {
    centroids.push_back(RandomCentroid(&rng, kDim, 2.2));
  }
  // Make a confusable cluster {2, 4, 6} (shirt / pullover / coat): their
  // centroids are pulled toward a common point, which raises their losses and
  // flattens the benefit gap — Slice Tuner should route most budget there
  // (matching slices #2, #4, #6 in the paper's Table 3).
  const std::vector<double> shirt_anchor = centroids[2];
  centroids[4] = AddVec(shirt_anchor, RandomCentroid(&rng, kDim, 1.0), 0.9);
  centroids[6] = AddVec(shirt_anchor, RandomCentroid(&rng, kDim, 1.0), 0.8);

  const double sigmas[kClasses] = {1.0,  0.8, 1.45, 1.1, 1.5,
                                   0.75, 1.5, 0.9,  0.95, 0.7};
  const double noise[kClasses] = {0.04, 0.02, 0.08, 0.05, 0.08,
                                  0.02, 0.09, 0.03, 0.03, 0.02};

  std::vector<SliceModel> slices(kClasses);
  for (int c = 0; c < kClasses; ++c) {
    GaussianComponent comp;
    comp.mean = centroids[static_cast<size_t>(c)];
    comp.sigma = sigmas[c];
    comp.label = c;
    slices[static_cast<size_t>(c)].components = {comp};
    slices[static_cast<size_t>(c)].label_noise = noise[c];
  }

  DatasetPreset preset;
  preset.name = "Fashion-like";
  const char* kNames[kClasses] = {"T-shirt", "Trouser",  "Pullover", "Dress",
                                  "Coat",    "Sandal",   "Shirt",    "Sneaker",
                                  "Bag",     "AnkleBoot"};
  preset.slice_names.assign(kNames, kNames + kClasses);
  preset.generator = SyntheticGenerator(kDim, kClasses, std::move(slices));
  preset.model_spec = ModelSpec{kDim, kClasses, {64}, 0, 32};
  preset.trainer.epochs = 20;
  preset.trainer.learning_rate = 0.01;
  preset.costs.assign(kClasses, 1.0);
  return preset;
}

DatasetPreset MakeMixedLike(uint64_t seed) {
  constexpr size_t kDim = 16;
  constexpr int kClasses = 20;
  Rng rng = Rng(seed).Fork(kMixedStream);

  std::vector<SliceModel> slices(kClasses);
  std::vector<std::string> names;
  names.reserve(kClasses);
  for (int c = 0; c < kClasses; ++c) {
    const bool is_digit = c >= 10;
    GaussianComponent comp;
    // Digits (MNIST): far apart and clean -> low loss, steep power law.
    // Fashion items: closer together and noisier -> flatter curves.
    comp.mean = RandomCentroid(&rng, kDim, is_digit ? 2.9 : 2.0);
    comp.sigma = is_digit ? 0.65 + 0.02 * (c - 10) : 1.25 + 0.03 * c;
    comp.label = c;
    slices[static_cast<size_t>(c)].components = {comp};
    slices[static_cast<size_t>(c)].label_noise = is_digit ? 0.01 : 0.05;
    names.push_back(is_digit ? StrFormat("Digit%d", c - 10)
                             : StrFormat("Fashion%d", c));
  }

  DatasetPreset preset;
  preset.name = "Mixed-like";
  preset.slice_names = std::move(names);
  preset.generator = SyntheticGenerator(kDim, kClasses, std::move(slices));
  preset.model_spec = ModelSpec{kDim, kClasses, {64}, 0, 32};
  preset.trainer.epochs = 20;
  preset.trainer.learning_rate = 0.01;
  preset.costs.assign(kClasses, 1.0);
  return preset;
}

DatasetPreset MakeFaceLike(uint64_t seed) {
  constexpr size_t kDim = 16;
  constexpr int kRaces = 4;  // label = race
  constexpr int kSlices = 8; // race x gender
  Rng rng = Rng(seed).Fork(kFaceStream);

  std::vector<std::vector<double>> race_centroids;
  race_centroids.reserve(kRaces);
  for (int r = 0; r < kRaces; ++r) {
    race_centroids.push_back(RandomCentroid(&rng, kDim, 2.0));
  }
  // A shared gender direction: same-race slices differ only by +-0.45 along
  // it, making e.g. White_Male data informative about White_Female (the
  // positive-influence pair of Figure 7).
  const std::vector<double> gender_dir = RandomCentroid(&rng, kDim, 0.9);

  const double sigmas[kSlices] = {1.10, 1.15, 1.35, 1.25,
                                  1.20, 1.15, 1.30, 1.40};
  std::vector<SliceModel> slices(kSlices);
  std::vector<std::string> names;
  const char* kRaceNames[kRaces] = {"White", "Black", "Asian", "Indian"};
  for (int r = 0; r < kRaces; ++r) {
    for (int g = 0; g < 2; ++g) {
      const int s = r * 2 + g;
      GaussianComponent comp;
      comp.mean = AddVec(race_centroids[static_cast<size_t>(r)], gender_dir,
                         g == 0 ? -0.5 : 0.5);
      comp.sigma = sigmas[s];
      comp.label = r;
      slices[static_cast<size_t>(s)].components = {comp};
      slices[static_cast<size_t>(s)].label_noise = 0.06;
      names.push_back(StrFormat("%s_%s", kRaceNames[r],
                                g == 0 ? "Male" : "Female"));
    }
  }

  DatasetPreset preset;
  preset.name = "Face-like";
  preset.slice_names = std::move(names);
  preset.generator = SyntheticGenerator(kDim, kRaces, std::move(slices));
  preset.model_spec = ModelSpec{kDim, kRaces, {64}, 0, 32};
  preset.trainer.epochs = 20;
  preset.trainer.learning_rate = 0.01;
  // Table 1 of the paper: AMT collection costs per slice.
  preset.costs = {1.2, 1.2, 1.0, 1.2, 1.4, 1.1, 1.4, 1.5};
  return preset;
}

DatasetPreset MakeCensusLike(uint64_t seed) {
  // Higher-dimensional than the image stand-ins: with a linear model, the
  // estimation error decays slowly in n/d, giving the gently sloped curves
  // of Figure 8d (a ~ 0.06-0.10) instead of an instantly saturated model.
  constexpr size_t kDim = 28;
  constexpr int kSlices = 4;
  Rng rng = Rng(seed).Fork(kCensusStream);

  // One global linear boundary direction; slices differ in margin (how
  // separable) and label noise (how irreducible the loss is).
  const std::vector<double> w_dir = RandomCentroid(&rng, kDim, 1.0);
  const double margins[kSlices] = {0.85, 0.65, 0.5, 0.4};
  const double noise[kSlices] = {0.05, 0.07, 0.09, 0.11};
  const double positive_rate[kSlices] = {0.30, 0.25, 0.20, 0.15};

  std::vector<SliceModel> slices(kSlices);
  std::vector<std::string> names = {"White_Male", "White_Female",
                                    "Black_Male", "Black_Female"};
  for (int s = 0; s < kSlices; ++s) {
    const std::vector<double> mu = RandomCentroid(&rng, kDim, 0.4);
    GaussianComponent neg;
    neg.mean = AddVec(mu, w_dir, -margins[s]);
    neg.sigma = 1.0;
    neg.label = 0;
    neg.weight = 1.0 - positive_rate[s];
    GaussianComponent pos;
    pos.mean = AddVec(mu, w_dir, margins[s]);
    pos.sigma = 1.0;
    pos.label = 1;
    pos.weight = positive_rate[s];
    slices[static_cast<size_t>(s)].components = {neg, pos};
    slices[static_cast<size_t>(s)].label_noise = noise[s];
  }

  DatasetPreset preset;
  preset.name = "Census-like";
  preset.slice_names = std::move(names);
  preset.generator = SyntheticGenerator(kDim, 2, std::move(slices));
  // Paper: fully connected network with no hidden layers (logistic).
  preset.model_spec = ModelSpec{kDim, 2, {}, 0, 32};
  preset.trainer.epochs = 15;
  preset.trainer.learning_rate = 0.05;
  preset.costs.assign(kSlices, 1.0);
  return preset;
}

Result<DatasetPreset> MakePresetByName(const std::string& name,
                                       uint64_t seed) {
  if (name == "fashion") return MakeFashionLike(seed == 0 ? 7 : seed);
  if (name == "mixed") return MakeMixedLike(seed == 0 ? 11 : seed);
  if (name == "face") return MakeFaceLike(seed == 0 ? 13 : seed);
  if (name == "census") return MakeCensusLike(seed == 0 ? 17 : seed);
  return Status::NotFound("unknown dataset preset: " + name);
}

std::vector<DatasetPreset> AllPresets() {
  std::vector<DatasetPreset> out;
  out.push_back(MakeFashionLike());
  out.push_back(MakeMixedLike());
  out.push_back(MakeFaceLike());
  out.push_back(MakeCensusLike());
  return out;
}

}  // namespace slicetuner
