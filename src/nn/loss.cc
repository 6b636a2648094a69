#include "nn/loss.h"

#include <cmath>

#include "common/math_util.h"

namespace slicetuner {

double SoftmaxCrossEntropy::Forward(const Matrix& logits,
                                    const std::vector<int>& labels) {
  // Fused softmax + NLL: one sweep per row computes the stabilized
  // probabilities directly from the logits (no intermediate copy of the
  // logits matrix) and accumulates the loss while the row is hot. The
  // per-element arithmetic matches SoftmaxRows followed by a separate NLL
  // pass bit for bit.
  const size_t rows = logits.rows();
  const size_t cols = logits.cols();
  if (probs_.rows() != rows || probs_.cols() != cols) {
    probs_ = Matrix(rows, cols);
  }
  labels_ = labels;
  double loss = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const double* in = logits.row(r);
    double* out = probs_.row(r);
    double mx = in[0];
    for (size_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      // The row maximum's term is exp(0) == 1 exactly; skipping the call
      // halves the exp work of a 2-class head without moving a bit (NaN
      // differences still go through exp).
      const double d = in[c] - mx;
      out[c] = d == 0.0 ? 1.0 : std::exp(d);
      sum += out[c];
    }
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < cols; ++c) out[c] *= inv;
    loss -= SafeLog(out[static_cast<size_t>(labels[r])]);
  }
  return loss / static_cast<double>(labels.size());
}

void SoftmaxCrossEntropy::Backward(Matrix* grad_logits) const {
  // Fused (softmax - onehot) / batch: a single pass instead of copy,
  // subtract, then rescale. Bit-identical to the unfused sequence because
  // each entry still computes probs * inv (or (probs - 1) * inv).
  const size_t rows = probs_.rows();
  const size_t cols = probs_.cols();
  if (grad_logits->rows() != rows || grad_logits->cols() != cols) {
    *grad_logits = Matrix(rows, cols);
  }
  const double inv_batch = 1.0 / static_cast<double>(labels_.size());
  for (size_t r = 0; r < rows; ++r) {
    const double* p = probs_.row(r);
    double* g = grad_logits->row(r);
    const size_t label = static_cast<size_t>(labels_[r]);
    for (size_t c = 0; c < cols; ++c) {
      g[c] = (c == label ? p[c] - 1.0 : p[c]) * inv_batch;
    }
  }
}

double LogLoss(const Matrix& probabilities, const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  double loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    loss -= SafeLog(probabilities(i, static_cast<size_t>(labels[i])));
  }
  return loss / static_cast<double>(labels.size());
}

double Accuracy(const Matrix& probabilities, const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (probabilities.ArgMaxRow(i) == static_cast<size_t>(labels[i])) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace slicetuner
