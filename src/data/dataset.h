// Dataset: the training data D of the paper, partitioned into slices
// (Section 2.1). Row storage with per-row label and slice id; features are
// materialized into a Matrix on demand for model training.

#ifndef SLICETUNER_DATA_DATASET_H_
#define SLICETUNER_DATA_DATASET_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "tensor/matrix.h"

namespace slicetuner {

/// One labeled example assigned to a slice.
struct Example {
  std::vector<double> features;
  int label = 0;
  int slice = 0;
};

/// A collection of examples with fixed feature dimensionality. Slices
/// partition the dataset: each row belongs to exactly one slice id in
/// [0, num_slices).
class Dataset {
 public:
  Dataset() : dim_(0) {}
  explicit Dataset(size_t dim) : dim_(dim) {}

  size_t dim() const { return dim_; }
  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  /// Appends one example. Fails if the feature dimension mismatches.
  Status Append(const Example& example);

  /// Reserves storage for `rows` more rows than the dataset holds.
  void Reserve(size_t rows);

  /// Appends all rows of `other` (dims must match; empty datasets adopt the
  /// other's dim).
  Status Merge(const Dataset& other);

  int label(size_t i) const { return labels_[i]; }
  int slice(size_t i) const { return slices_[i]; }
  const double* features(size_t i) const {
    return features_.data() + i * dim_;
  }

  Example ExampleAt(size_t i) const;

  /// Largest slice id present + 1 (0 when empty).
  int MaxSliceId() const;

  /// Largest label present + 1 (0 when empty).
  int NumClasses() const;

  /// Row indices belonging to `slice`, in row order.
  std::vector<size_t> SliceIndices(int slice) const;

  /// sizes[s] = number of rows in slice s, for s in [0, num_slices).
  std::vector<size_t> SliceSizes(int num_slices) const;

  /// New dataset with only the given rows (in order).
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// New dataset with only the rows in `slice`.
  Dataset SliceSubset(int slice) const;

  /// Uniform random subset of `count` rows (without replacement).
  Dataset Sample(size_t count, Rng* rng) const;

  /// Per-slice stratified random subset: keeps ceil(fraction * |s|) rows of
  /// each slice s (at least min_per_slice if the slice has that many).
  Dataset StratifiedSample(double fraction, size_t min_per_slice,
                           int num_slices, Rng* rng) const;

  /// Features of all rows as an n x dim matrix.
  Matrix FeatureMatrix() const;

  /// Features of the given rows.
  Matrix GatherFeatures(const std::vector<size_t>& indices) const;

  /// All labels (copy).
  std::vector<int> Labels() const { return labels_; }

  /// Labels of the given rows.
  std::vector<int> GatherLabels(const std::vector<size_t>& indices) const;

 private:
  size_t dim_;
  std::vector<double> features_;  // row-major, size() * dim_
  std::vector<int> labels_;
  std::vector<int> slices_;
};

}  // namespace slicetuner

#endif  // SLICETUNER_DATA_DATASET_H_
