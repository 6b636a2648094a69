#include "nn/activation.h"

#include <cmath>

#include "common/string_util.h"

namespace slicetuner {

void ReluLayer::Forward(const Matrix& x, Matrix* y) {
  input_ = x;
  *y = x;
  double* p = y->data();
  for (size_t i = 0; i < y->size(); ++i) {
    if (p[i] < 0.0) p[i] = 0.0;
  }
}

void ReluLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  if (grad_x == nullptr) return;  // no parameters
  *grad_x = grad_y;
  const double* in = input_.data();
  double* g = grad_x->data();
  for (size_t i = 0; i < grad_x->size(); ++i) {
    if (in[i] <= 0.0) g[i] = 0.0;
  }
}

std::unique_ptr<Layer> ReluLayer::Clone() const {
  return std::make_unique<ReluLayer>(*this);
}

void LeakyReluLayer::Forward(const Matrix& x, Matrix* y) {
  input_ = x;
  *y = x;
  double* p = y->data();
  for (size_t i = 0; i < y->size(); ++i) {
    if (p[i] < 0.0) p[i] *= alpha_;
  }
}

void LeakyReluLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  if (grad_x == nullptr) return;  // no parameters
  *grad_x = grad_y;
  const double* in = input_.data();
  double* g = grad_x->data();
  for (size_t i = 0; i < grad_x->size(); ++i) {
    if (in[i] <= 0.0) g[i] *= alpha_;
  }
}

std::string LeakyReluLayer::name() const {
  return StrFormat("LeakyReLU(%.3f)", alpha_);
}

std::unique_ptr<Layer> LeakyReluLayer::Clone() const {
  return std::make_unique<LeakyReluLayer>(*this);
}

void SigmoidLayer::Forward(const Matrix& x, Matrix* y) {
  *y = x;
  double* p = y->data();
  for (size_t i = 0; i < y->size(); ++i) {
    p[i] = 1.0 / (1.0 + std::exp(-p[i]));
  }
  output_ = *y;
}

void SigmoidLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  if (grad_x == nullptr) return;  // no parameters
  *grad_x = grad_y;
  const double* out = output_.data();
  double* g = grad_x->data();
  for (size_t i = 0; i < grad_x->size(); ++i) {
    g[i] *= out[i] * (1.0 - out[i]);
  }
}

std::unique_ptr<Layer> SigmoidLayer::Clone() const {
  return std::make_unique<SigmoidLayer>(*this);
}

void TanhLayer::Forward(const Matrix& x, Matrix* y) {
  *y = x;
  double* p = y->data();
  for (size_t i = 0; i < y->size(); ++i) p[i] = std::tanh(p[i]);
  output_ = *y;
}

void TanhLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  if (grad_x == nullptr) return;  // no parameters
  *grad_x = grad_y;
  const double* out = output_.data();
  double* g = grad_x->data();
  for (size_t i = 0; i < grad_x->size(); ++i) {
    g[i] *= 1.0 - out[i] * out[i];
  }
}

std::unique_ptr<Layer> TanhLayer::Clone() const {
  return std::make_unique<TanhLayer>(*this);
}

}  // namespace slicetuner
