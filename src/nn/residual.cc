#include "nn/residual.h"

#include "common/string_util.h"

namespace slicetuner {

ResidualBlock::ResidualBlock(size_t dim, size_t hidden_dim, Rng* rng)
    : fc1_(dim, hidden_dim, rng, Init::kHe, DenseActivation::kRelu),
      fc2_(hidden_dim, dim, rng, Init::kGlorot) {}

void ResidualBlock::Forward(const Matrix& x, Matrix* y) {
  fc1_.Forward(x, &hidden_);
  fc2_.Forward(hidden_, y);
  *y += x;  // skip connection
}

void ResidualBlock::Backward(const Matrix& grad_y, Matrix* grad_x) {
  // Branch path: fc2, then fc1 (whose fused ReLU applies its own mask).
  fc2_.Backward(grad_y, &grad_hidden_);
  fc1_.Backward(grad_hidden_, grad_x);
  // Skip path adds the incoming gradient.
  if (grad_x != nullptr) *grad_x += grad_y;
}

std::vector<Matrix*> ResidualBlock::Params() {
  std::vector<Matrix*> out = fc1_.Params();
  for (Matrix* p : fc2_.Params()) out.push_back(p);
  return out;
}

std::vector<Matrix*> ResidualBlock::Grads() {
  std::vector<Matrix*> out = fc1_.Grads();
  for (Matrix* g : fc2_.Grads()) out.push_back(g);
  return out;
}

void ResidualBlock::ResetParameters(Rng* rng) {
  fc1_.ResetParameters(rng);
  fc2_.ResetParameters(rng);
}

std::string ResidualBlock::name() const {
  return StrFormat("Residual(%zu,h=%zu)", fc1_.in_dim(), fc1_.out_dim());
}

std::unique_ptr<Layer> ResidualBlock::Clone() const {
  return std::make_unique<ResidualBlock>(*this);
}

}  // namespace slicetuner
