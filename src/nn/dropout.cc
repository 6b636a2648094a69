#include "nn/dropout.h"

#include "common/string_util.h"

namespace slicetuner {

DropoutLayer::DropoutLayer(double rate, uint64_t seed)
    : rate_(rate < 0.0 ? 0.0 : (rate >= 1.0 ? 0.99 : rate)), rng_(seed) {}

void DropoutLayer::Forward(const Matrix& x, Matrix* y) {
  *y = x;
  if (!training_ || rate_ <= 0.0) {
    mask_ = Matrix();
    return;
  }
  mask_ = Matrix(x.rows(), x.cols());
  const double keep = 1.0 - rate_;
  const double scale = 1.0 / keep;
  double* m = mask_.data();
  double* out = y->data();
  for (size_t i = 0; i < mask_.size(); ++i) {
    m[i] = rng_.Bernoulli(keep) ? scale : 0.0;
    out[i] *= m[i];
  }
}

void DropoutLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  if (grad_x == nullptr) return;  // no parameters
  *grad_x = grad_y;
  if (mask_.empty()) return;
  const double* m = mask_.data();
  double* g = grad_x->data();
  for (size_t i = 0; i < grad_x->size(); ++i) g[i] *= m[i];
}

std::string DropoutLayer::name() const {
  return StrFormat("Dropout(%.2f)", rate_);
}

std::unique_ptr<Layer> DropoutLayer::Clone() const {
  return std::make_unique<DropoutLayer>(*this);
}

}  // namespace slicetuner
