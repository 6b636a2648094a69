#include "nn/model.h"

#include "common/string_util.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/residual.h"
#include "tensor/ops.h"

namespace slicetuner {

Model::Model(const Model& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->Clone());
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->Clone());
  return *this;
}

void Model::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
}

const Matrix& Model::RunForward(const Matrix& x) {
  activations_.resize(layers_.size());
  const Matrix* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->Forward(*cur, &activations_[i]);
    cur = &activations_[i];
  }
  return *cur;
}

void Model::ForwardLogits(const Matrix& x, Matrix* logits) {
  *logits = RunForward(x);
}

void Model::Predict(const Matrix& x, Matrix* probabilities) {
  ForwardLogits(x, probabilities);
  SoftmaxRows(probabilities);
}

double Model::ForwardBackward(const Matrix& x, const std::vector<int>& labels) {
  // The loss reads the last activation in place: no logits copy.
  const double loss = loss_.Forward(RunForward(x), labels);
  loss_.Backward(&grad_a_);
  Matrix* grad_in = &grad_a_;
  Matrix* grad_out = &grad_b_;
  for (size_t i = layers_.size(); i-- > 0;) {
    // Nobody reads dL/dx of the input layer: parameter gradients only.
    layers_[i]->Backward(*grad_in, i == 0 ? nullptr : grad_out);
    std::swap(grad_in, grad_out);
  }
  return loss;
}

std::vector<Matrix*> Model::Params() {
  std::vector<Matrix*> out;
  for (auto& l : layers_) {
    for (Matrix* p : l->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Model::Grads() {
  std::vector<Matrix*> out;
  for (auto& l : layers_) {
    for (Matrix* g : l->Grads()) out.push_back(g);
  }
  return out;
}

void Model::ResetParameters(Rng* rng) {
  for (auto& l : layers_) l->ResetParameters(rng);
}

void Model::SetTraining(bool training) {
  for (auto& l : layers_) {
    if (auto* dropout = dynamic_cast<DropoutLayer*>(l.get())) {
      dropout->set_training(training);
    }
  }
}

size_t Model::NumParameters() const {
  size_t total = 0;
  for (const auto& l : layers_) {
    for (Matrix* p : const_cast<Layer&>(*l).Params()) total += p->size();
  }
  return total;
}

std::string Model::ToString() const {
  std::vector<std::string> names;
  names.reserve(layers_.size());
  for (const auto& l : layers_) names.push_back(l->name());
  return Join(names, " -> ");
}

Model BuildModel(const ModelSpec& spec, Rng* rng) {
  Model model;
  size_t dim = spec.input_dim;
  for (size_t width : spec.hidden) {
    // Hidden stack uses the fused Dense+ReLU layer: one layer (and one
    // GEMM-with-epilogue) where the unfused stack had Dense -> ReLU plus
    // two full-matrix copies. Weight draws are in the same order as the
    // unfused stack, so models built from the same seed are identical.
    model.Add(std::make_unique<DenseLayer>(dim, width, rng, Init::kHe,
                                           DenseActivation::kRelu));
    if (spec.dropout > 0.0) {
      model.Add(std::make_unique<DropoutLayer>(spec.dropout, (*rng)()));
    }
    dim = width;
  }
  for (size_t i = 0; i < spec.residual_blocks; ++i) {
    model.Add(std::make_unique<ResidualBlock>(dim, spec.residual_hidden, rng));
  }
  model.Add(std::make_unique<DenseLayer>(dim, spec.num_classes, rng,
                                         Init::kGlorot));
  return model;
}

}  // namespace slicetuner
