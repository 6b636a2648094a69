#include "data/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace slicetuner {

Status Dataset::Append(const Example& example) {
  if (dim_ == 0 && empty()) dim_ = example.features.size();
  if (example.features.size() != dim_) {
    return Status::InvalidArgument(
        StrFormat("feature dim %zu != dataset dim %zu",
                  example.features.size(), dim_));
  }
  features_.insert(features_.end(), example.features.begin(),
                   example.features.end());
  labels_.push_back(example.label);
  slices_.push_back(example.slice);
  return Status::OK();
}

void Dataset::Reserve(size_t rows) {
  features_.reserve(features_.size() + rows * dim_);
  labels_.reserve(labels_.size() + rows);
  slices_.reserve(slices_.size() + rows);
}

Status Dataset::Merge(const Dataset& other) {
  if (other.empty()) return Status::OK();
  if (dim_ == 0 && empty()) dim_ = other.dim_;
  if (other.dim_ != dim_) {
    return Status::InvalidArgument(
        StrFormat("merge dim %zu != dataset dim %zu", other.dim_, dim_));
  }
  features_.insert(features_.end(), other.features_.begin(),
                   other.features_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  slices_.insert(slices_.end(), other.slices_.begin(), other.slices_.end());
  return Status::OK();
}

Example Dataset::ExampleAt(size_t i) const {
  Example e;
  // Guard dim_ == 0: features_.data() may be null, and assign(null, null)
  // trips GCC's -Wnonnull when inlined.
  if (dim_ > 0) e.features.assign(features(i), features(i) + dim_);
  e.label = labels_[i];
  e.slice = slices_[i];
  return e;
}

int Dataset::MaxSliceId() const {
  int mx = -1;
  for (int s : slices_) mx = std::max(mx, s);
  return mx + 1;
}

int Dataset::NumClasses() const {
  int mx = -1;
  for (int y : labels_) mx = std::max(mx, y);
  return mx + 1;
}

std::vector<size_t> Dataset::SliceIndices(int slice) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < slices_.size(); ++i) {
    if (slices_[i] == slice) out.push_back(i);
  }
  return out;
}

std::vector<size_t> Dataset::SliceSizes(int num_slices) const {
  std::vector<size_t> sizes(static_cast<size_t>(num_slices), 0);
  for (int s : slices_) {
    if (s >= 0 && s < num_slices) ++sizes[static_cast<size_t>(s)];
  }
  return sizes;
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(dim_);
  out.features_.reserve(indices.size() * dim_);
  out.labels_.reserve(indices.size());
  out.slices_.reserve(indices.size());
  for (size_t i : indices) {
    out.features_.insert(out.features_.end(), features(i),
                         features(i) + dim_);
    out.labels_.push_back(labels_[i]);
    out.slices_.push_back(slices_[i]);
  }
  return out;
}

Dataset Dataset::SliceSubset(int slice) const {
  return Subset(SliceIndices(slice));
}

Dataset Dataset::Sample(size_t count, Rng* rng) const {
  const std::vector<size_t> picked =
      rng->SampleWithoutReplacement(size(), count);
  return Subset(picked);
}

Dataset Dataset::StratifiedSample(double fraction, size_t min_per_slice,
                                  int num_slices, Rng* rng) const {
  std::vector<size_t> all;
  for (int s = 0; s < num_slices; ++s) {
    const std::vector<size_t> rows = SliceIndices(s);
    if (rows.empty()) continue;
    size_t keep = static_cast<size_t>(
        std::ceil(fraction * static_cast<double>(rows.size())));
    keep = std::max(keep, std::min(min_per_slice, rows.size()));
    keep = std::min(keep, rows.size());
    const std::vector<size_t> chosen =
        rng->SampleWithoutReplacement(rows.size(), keep);
    for (size_t c : chosen) all.push_back(rows[c]);
  }
  std::sort(all.begin(), all.end());
  return Subset(all);
}

Matrix Dataset::FeatureMatrix() const {
  Matrix out(size(), dim_);
  std::copy(features_.begin(), features_.end(), out.data());
  return out;
}

Matrix Dataset::GatherFeatures(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), dim_);
  for (size_t i = 0; i < indices.size(); ++i) {
    std::copy(features(indices[i]), features(indices[i]) + dim_, out.row(i));
  }
  return out;
}

std::vector<int> Dataset::GatherLabels(
    const std::vector<size_t>& indices) const {
  std::vector<int> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(labels_[i]);
  return out;
}

}  // namespace slicetuner
