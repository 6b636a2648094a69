// Layer interface for the mini neural-network library. Layers own their
// parameters and gradients; the optimizer mutates them through Params() /
// Grads(). Forward/Backward operate on mini-batches (rows = examples).

#ifndef SLICETUNER_NN_LAYER_H_
#define SLICETUNER_NN_LAYER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "tensor/matrix.h"

namespace slicetuner {

/// Abstract trainable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for input `x` (batch x in_dim), storing any
  /// state needed by Backward.
  virtual void Forward(const Matrix& x, Matrix* y) = 0;

  /// Given dL/dy, accumulates parameter gradients and computes dL/dx.
  /// `grad_x == nullptr` asks for parameter gradients only (the model's
  /// input layer, whose dL/dx nobody reads): layers then skip the dL/dx
  /// work, and the parameter gradients are bit-identical to a call that
  /// computes it. Must be called after Forward on the same batch.
  virtual void Backward(const Matrix& grad_y, Matrix* grad_x) = 0;

  /// Trainable parameters (possibly empty for stateless layers).
  virtual std::vector<Matrix*> Params() { return {}; }

  /// Gradients corresponding 1:1 to Params().
  virtual std::vector<Matrix*> Grads() { return {}; }

  /// Re-draws the initial parameters (no-op for stateless layers).
  virtual void ResetParameters(Rng* /*rng*/) {}

  /// Layer name for debugging ("Dense(64->10)").
  virtual std::string name() const = 0;

  /// Deep copy, including current parameter values.
  virtual std::unique_ptr<Layer> Clone() const = 0;
};

}  // namespace slicetuner

#endif  // SLICETUNER_NN_LAYER_H_
