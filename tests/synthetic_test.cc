// Tests for the synthetic dataset generators: determinism, slice structure,
// label noise, and the properties the experiments rely on (per-slice
// difficulty differences, cross-slice similarity).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/math_util.h"
#include "data/synthetic.h"
#include "sim/scenario.h"
#include "sim/scripted_source.h"

namespace slicetuner {
namespace {

TEST(SyntheticGeneratorTest, GenerateRespectsSliceAndDim) {
  const DatasetPreset preset = MakeFashionLike();
  Rng rng(1);
  const Example e = preset.generator.Generate(3, &rng);
  EXPECT_EQ(e.slice, 3);
  EXPECT_EQ(e.features.size(), preset.generator.dim());
}

TEST(SyntheticGeneratorTest, GenerateDatasetCounts) {
  const DatasetPreset preset = MakeCensusLike();
  Rng rng(2);
  const Dataset d =
      preset.generator.GenerateDataset({10, 20, 30, 40}, &rng);
  EXPECT_EQ(d.size(), 100u);
  const auto sizes = d.SliceSizes(4);
  EXPECT_EQ(sizes[0], 10u);
  EXPECT_EQ(sizes[3], 40u);
}

TEST(SyntheticGeneratorTest, DeterministicGivenSeeds) {
  const DatasetPreset p1 = MakeFashionLike(7);
  const DatasetPreset p2 = MakeFashionLike(7);
  Rng r1(3), r2(3);
  const Example e1 = p1.generator.Generate(0, &r1);
  const Example e2 = p2.generator.Generate(0, &r2);
  for (size_t i = 0; i < e1.features.size(); ++i) {
    EXPECT_DOUBLE_EQ(e1.features[i], e2.features[i]);
  }
  EXPECT_EQ(e1.label, e2.label);
}

TEST(SyntheticGeneratorTest, DifferentPresetSeedsDiffer) {
  const DatasetPreset p1 = MakeFashionLike(7);
  const DatasetPreset p2 = MakeFashionLike(8);
  Rng r1(3), r2(3);
  const Example e1 = p1.generator.Generate(0, &r1);
  const Example e2 = p2.generator.Generate(0, &r2);
  double diff = 0.0;
  for (size_t i = 0; i < e1.features.size(); ++i) {
    diff += std::fabs(e1.features[i] - e2.features[i]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(SyntheticGeneratorTest, LabelNoiseFlipsSomeLabels) {
  // Fashion slice 6 has 9% label noise: in a large sample some labels must
  // differ from the slice's canonical class.
  const DatasetPreset preset = MakeFashionLike();
  Rng rng(4);
  int mismatches = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (preset.generator.Generate(6, &rng).label != 6) ++mismatches;
  }
  // Expected ~ noise * (1 - 1/C) * n ~ 160.
  EXPECT_GT(mismatches, 60);
  EXPECT_LT(mismatches, 320);
}

TEST(SyntheticGeneratorTest, CleanSliceHasFewFlips) {
  const DatasetPreset preset = MakeMixedLike();
  Rng rng(5);
  int mismatches = 0;
  for (int i = 0; i < 2000; ++i) {
    if (preset.generator.Generate(15, &rng).label != 15) ++mismatches;
  }
  EXPECT_LT(mismatches, 60);  // 1% noise
}

// Row-for-row, bit-for-bit equality of two datasets.
void ExpectSameRows(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.dim(), want.dim());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.label(i), want.label(i)) << "row " << i;
    EXPECT_EQ(got.slice(i), want.slice(i)) << "row " << i;
    EXPECT_EQ(std::memcmp(got.features(i), want.features(i),
                          got.dim() * sizeof(double)),
              0)
        << "row " << i;
  }
}

// One example drawn the way Generate always has: copy the component
// weights, pick one, draw the features, then maybe flip the label.
Example ReferenceGenerate(const SyntheticGenerator& generator, int slice,
                          Rng* rng) {
  const SliceModel& model = generator.slice_model(slice);
  std::vector<double> weights;
  for (const GaussianComponent& c : model.components) {
    weights.push_back(c.weight);
  }
  const GaussianComponent& comp = model.components[rng->Categorical(weights)];
  Example e;
  e.slice = slice;
  e.label = comp.label;
  for (size_t i = 0; i < generator.dim(); ++i) {
    e.features.push_back(rng->Normal(comp.mean[i], comp.sigma));
  }
  if (model.label_noise > 0.0 && rng->Bernoulli(model.label_noise)) {
    e.label = static_cast<int>(
        rng->UniformInt(static_cast<uint64_t>(generator.num_classes())));
  }
  return e;
}

// The batch paths reuse one Example and read component weights in place;
// they must draw exactly what the per-example loop draws.
TEST(SyntheticGeneratorTest, GenerateDatasetMatchesPerExampleLoop) {
  // Three components (one of weight zero) plus label noise.
  GaussianComponent a{{0.0, 1.0, -1.0}, 0.7, 0, 0.2};
  GaussianComponent b{{2.0, 0.0, 1.0}, 1.1, 1, 0.0};
  GaussianComponent c{{-1.0, 2.0, 0.5}, 0.9, 2, 0.8};
  SliceModel mixed{{a, b, c}, 0.3};
  SliceModel single{{b}, 0.0};
  const std::vector<SyntheticGenerator> generators = {
      MakeCensusLike().generator,  // two weighted components per slice
      MakeFashionLike().generator,
      SyntheticGenerator(3, 3, {mixed, single}),
  };
  for (const SyntheticGenerator& generator : generators) {
    std::vector<size_t> counts;
    for (int s = 0; s < generator.num_slices(); ++s) {
      counts.push_back(s == 1 ? 0 : static_cast<size_t>(20 + 7 * s));
    }
    Rng batch_rng(9), loop_rng(9);
    const Dataset batch = generator.GenerateDataset(counts, &batch_rng);
    Dataset loop(generator.dim());
    for (size_t s = 0; s < counts.size(); ++s) {
      for (size_t i = 0; i < counts[s]; ++i) {
        ST_CHECK_OK(loop.Append(
            ReferenceGenerate(generator, static_cast<int>(s), &loop_rng)));
      }
    }
    ExpectSameRows(batch, loop);
    // Both streams stop at the same draw, cached normal included.
    EXPECT_EQ(batch_rng.Normal(), loop_rng.Normal());
    EXPECT_EQ(batch_rng(), loop_rng());
  }
}

TEST(SyntheticGeneratorTest, ScriptedAcquireMatchesPerExampleLoop) {
  // Two components per slice, generator label noise and acquisition-time
  // label noise.
  const Result<sim::ScenarioSpec> spec =
      sim::CanonicalScenarioByName("label-noise");
  ST_CHECK_OK(spec.status());
  ASSERT_FALSE(spec->acquisition_label_noise.empty());
  sim::ScriptedSource source(*spec);
  sim::ScriptedSource reference(*spec);
  for (int round = 0; round < 2; ++round) {
    source.BeginRound(round);
    reference.BeginRound(round);
    // The round's acquisition stream, derived as ScriptedSource does.
    Rng rng(Rng(spec->seed).ForkSeed((uint64_t{1} << 32) +
                                     static_cast<uint64_t>(round)));
    for (int slice = 0; slice < spec->num_slices; ++slice) {
      const Dataset batch = source.Acquire(slice, 25);
      const SyntheticGenerator& generator = reference.generator();
      const double mistakes =
          spec->acquisition_label_noise[static_cast<size_t>(slice)];
      Dataset loop(generator.dim());
      for (int i = 0; i < 25; ++i) {
        Example example = ReferenceGenerate(generator, slice, &rng);
        if (mistakes > 0.0 && rng.Bernoulli(mistakes)) {
          example.label = static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(generator.num_classes())));
        }
        ST_CHECK_OK(loop.Append(example));
      }
      ExpectSameRows(batch, loop);
    }
  }
}

TEST(PresetTest, FashionHasTenSlices) {
  const DatasetPreset p = MakeFashionLike();
  EXPECT_EQ(p.num_slices(), 10);
  EXPECT_EQ(p.slice_names.size(), 10u);
  EXPECT_EQ(p.generator.num_classes(), 10);
  EXPECT_EQ(p.costs.size(), 10u);
}

TEST(PresetTest, MixedHasTwentySlices) {
  const DatasetPreset p = MakeMixedLike();
  EXPECT_EQ(p.num_slices(), 20);
  EXPECT_EQ(p.slice_names[0].substr(0, 7), "Fashion");
  EXPECT_EQ(p.slice_names[10].substr(0, 5), "Digit");
}

TEST(PresetTest, FaceHasEightSlicesFourClasses) {
  const DatasetPreset p = MakeFaceLike();
  EXPECT_EQ(p.num_slices(), 8);
  EXPECT_EQ(p.generator.num_classes(), 4);
  // Table 1 costs.
  EXPECT_DOUBLE_EQ(p.costs[2], 1.0);
  EXPECT_DOUBLE_EQ(p.costs[7], 1.5);
}

TEST(PresetTest, CensusIsBinaryLogistic) {
  const DatasetPreset p = MakeCensusLike();
  EXPECT_EQ(p.num_slices(), 4);
  EXPECT_EQ(p.generator.num_classes(), 2);
  EXPECT_TRUE(p.model_spec.hidden.empty());
}

TEST(PresetTest, FaceSameRaceSlicesShareLabel) {
  const DatasetPreset p = MakeFaceLike();
  Rng rng(6);
  for (int r = 0; r < 4; ++r) {
    // Both genders of a race produce that race's label (modulo noise);
    // check the majority label matches.
    for (int g = 0; g < 2; ++g) {
      int votes[4] = {0, 0, 0, 0};
      for (int i = 0; i < 200; ++i) {
        const Example e = p.generator.Generate(r * 2 + g, &rng);
        if (e.label >= 0 && e.label < 4) ++votes[e.label];
      }
      int best = 0;
      for (int c = 1; c < 4; ++c) {
        if (votes[c] > votes[best]) best = c;
      }
      EXPECT_EQ(best, r);
    }
  }
}

TEST(PresetTest, FaceSameRaceSlicesAreCloserThanCrossRace) {
  // White_Male's centroid must be closer to White_Female's than to any
  // other-race slice — the Figure 7 influence structure.
  const DatasetPreset p = MakeFaceLike();
  auto centroid = [&](int slice) {
    Rng rng(7 + slice);
    std::vector<double> mean(p.generator.dim(), 0.0);
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      const Example e = p.generator.Generate(slice, &rng);
      for (size_t d = 0; d < mean.size(); ++d) mean[d] += e.features[d];
    }
    for (auto& m : mean) m /= n;
    return mean;
  };
  auto dist = [](const std::vector<double>& a, const std::vector<double>& b) {
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      acc += (a[i] - b[i]) * (a[i] - b[i]);
    }
    return std::sqrt(acc);
  };
  const auto wm = centroid(0);
  const auto wf = centroid(1);
  const double same_race = dist(wm, wf);
  for (int s = 2; s < 8; ++s) {
    EXPECT_LT(same_race, dist(wm, centroid(s))) << "slice " << s;
  }
}

TEST(PresetTest, MixedDigitsMoreSeparableThanFashion) {
  // Digit centroids have larger norm (scale 2.9 vs 2.0) and smaller sigma,
  // so intra-slice scatter relative to centroid distance is smaller.
  const DatasetPreset p = MakeMixedLike();
  const SliceModel& fashion = p.generator.slice_model(0);
  const SliceModel& digit = p.generator.slice_model(10);
  EXPECT_GT(fashion.components[0].sigma, digit.components[0].sigma);
  EXPECT_GT(fashion.label_noise, digit.label_noise);
}

TEST(PresetTest, CensusComponentsEncodePositiveRate) {
  const DatasetPreset p = MakeCensusLike();
  const SliceModel& s0 = p.generator.slice_model(0);
  ASSERT_EQ(s0.components.size(), 2u);
  EXPECT_EQ(s0.components[0].label, 0);
  EXPECT_EQ(s0.components[1].label, 1);
  EXPECT_NEAR(s0.components[1].weight, 0.30, 1e-12);
}

TEST(PresetTest, LookupByName) {
  EXPECT_TRUE(MakePresetByName("fashion").ok());
  EXPECT_TRUE(MakePresetByName("mixed").ok());
  EXPECT_TRUE(MakePresetByName("face").ok());
  EXPECT_TRUE(MakePresetByName("census").ok());
  EXPECT_EQ(MakePresetByName("bogus").status().code(), StatusCode::kNotFound);
}

TEST(PresetTest, AllPresetsReturnsFour) {
  const auto presets = AllPresets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].name, "Fashion-like");
  EXPECT_EQ(presets[3].name, "Census-like");
}

}  // namespace
}  // namespace slicetuner
