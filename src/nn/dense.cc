#include "nn/dense.h"

#include "common/string_util.h"
#include "tensor/ops.h"

namespace slicetuner {

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng* rng, Init init,
                       DenseActivation activation)
    : init_(init),
      activation_(activation),
      weights_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_weights_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  ResetParameters(rng);
}

void DenseLayer::ResetParameters(Rng* rng) {
  if (init_ == Init::kHe) {
    weights_.FillHe(rng);
  } else {
    weights_.FillGlorot(rng);
  }
  bias_.Zero();
}

void DenseLayer::Forward(const Matrix& x, Matrix* y) {
  input_ = x;
  if (activation_ == DenseActivation::kNone) {
    MatMulBias(x, weights_, bias_, y);
    return;
  }
  MatMulBias(x, weights_, bias_, &pre_);
  if (!y->SameShape(pre_)) *y = Matrix(pre_.rows(), pre_.cols());
  const double* p = pre_.data();
  double* out = y->data();
  for (size_t i = 0; i < pre_.size(); ++i) {
    out[i] = p[i] < 0.0 ? 0.0 : p[i];
  }
}

void DenseLayer::Backward(const Matrix& grad_y, Matrix* grad_x) {
  // dW = x^T * dPre, db = column-sum(dPre), dX = dPre * W^T (skipped when
  // grad_x is null), where under kRelu dPre = dY masked by pre > 0 and
  // otherwise dPre = dY.
  const Matrix* grad_pre = &grad_y;
  if (activation_ == DenseActivation::kRelu) {
    if (!grad_pre_.SameShape(grad_y)) {
      grad_pre_ = Matrix(grad_y.rows(), grad_y.cols());
    }
    const double* g = grad_y.data();
    const double* p = pre_.data();
    double* gp = grad_pre_.data();
    for (size_t i = 0; i < grad_y.size(); ++i) {
      gp[i] = p[i] <= 0.0 ? 0.0 : g[i];
    }
    grad_pre = &grad_pre_;
  }
  MatMulTransposedA(input_, *grad_pre, &grad_weights_);
  ColumnSum(*grad_pre, &grad_bias_);
  if (grad_x != nullptr) MatMulTransposedB(*grad_pre, weights_, grad_x);
}

std::string DenseLayer::name() const {
  return StrFormat(activation_ == DenseActivation::kRelu
                       ? "DenseReLU(%zu->%zu)"
                       : "Dense(%zu->%zu)",
                   weights_.rows(), weights_.cols());
}

std::unique_ptr<Layer> DenseLayer::Clone() const {
  return std::make_unique<DenseLayer>(*this);
}

}  // namespace slicetuner
