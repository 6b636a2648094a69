// Sequential model: an ordered list of layers with a softmax classification
// head. This is the "M" of the paper — the model trained on D (or subsets)
// and evaluated per slice.

#ifndef SLICETUNER_NN_MODEL_H_
#define SLICETUNER_NN_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "tensor/matrix.h"

namespace slicetuner {

/// A feed-forward classifier. The final layer must output `num_classes`
/// logits; Predict applies softmax.
class Model {
 public:
  Model() = default;

  // Deep-copying; layers are cloned.
  Model(const Model& other);
  Model& operator=(const Model& other);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer (takes ownership).
  void Add(std::unique_ptr<Layer> layer);

  /// Forward pass producing logits (batch x classes).
  void ForwardLogits(const Matrix& x, Matrix* logits);

  /// Forward pass producing class probabilities.
  void Predict(const Matrix& x, Matrix* probabilities);

  /// One training step on a batch: forward, loss, backward. Returns the mean
  /// batch loss. Gradients are left in the layers for the optimizer.
  double ForwardBackward(const Matrix& x, const std::vector<int>& labels);

  /// All trainable parameters / their gradients, layer by layer.
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  /// Re-initializes every layer's parameters.
  void ResetParameters(Rng* rng);

  /// Switches train/eval mode on mode-aware layers (e.g., Dropout).
  void SetTraining(bool training);

  /// Total number of scalar parameters.
  size_t NumParameters() const;

  size_t num_layers() const { return layers_.size(); }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// "Dense(16->64) -> ReLU -> Dense(64->10)".
  std::string ToString() const;

 private:
  /// Runs every layer on `x`; returns the last activation (or `x` itself
  /// for a model without layers). Valid until the next forward pass.
  const Matrix& RunForward(const Matrix& x);

  std::vector<std::unique_ptr<Layer>> layers_;
  SoftmaxCrossEntropy loss_;
  // Scratch buffers reused across calls to avoid re-allocation.
  std::vector<Matrix> activations_;
  Matrix grad_a_;
  Matrix grad_b_;
};

/// Architecture presets mirroring the paper's per-dataset models.
struct ModelSpec {
  size_t input_dim = 0;
  size_t num_classes = 2;
  /// Hidden layer widths; empty = logistic regression (paper: AdultCensus).
  std::vector<size_t> hidden = {};
  /// Number of residual blocks appended after the hidden stack (paper's
  /// ResNet-18 stand-in uses > 0).
  size_t residual_blocks = 0;
  size_t residual_hidden = 32;
  /// Dropout rate after each hidden activation (0 disables).
  double dropout = 0.0;
};

/// Builds a model from a spec, drawing initial weights from `rng`.
Model BuildModel(const ModelSpec& spec, Rng* rng);

}  // namespace slicetuner

#endif  // SLICETUNER_NN_MODEL_H_
