// Unit tests for the NN substrate: layer gradients (checked numerically),
// loss correctness, optimizer behaviour, and end-to-end trainability.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/math_util.h"
#include "common/random.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/residual.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace slicetuner {
namespace {

// Numerically checks dL/dx for a layer where L = sum(y) (so dL/dy = 1).
void CheckInputGradient(Layer* layer, const Matrix& x, double tol) {
  Matrix y;
  layer->Forward(x, &y);
  Matrix grad_y(y.rows(), y.cols(), 1.0);
  Matrix grad_x;
  layer->Backward(grad_y, &grad_x);

  const double eps = 1e-6;
  Matrix xp = x;
  for (size_t i = 0; i < x.size(); ++i) {
    xp.data()[i] = x.data()[i] + eps;
    Matrix yp;
    layer->Forward(xp, &yp);
    const double up = yp.Sum();
    xp.data()[i] = x.data()[i] - eps;
    Matrix ym;
    layer->Forward(xp, &ym);
    const double down = ym.Sum();
    xp.data()[i] = x.data()[i];
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad_x.data()[i], numeric, tol) << "at index " << i;
  }
  // Restore forward state for the caller.
  layer->Forward(x, &y);
}

// Numerically checks the parameter gradients of a layer for L = sum(y).
void CheckParamGradients(Layer* layer, const Matrix& x, double tol) {
  Matrix y;
  layer->Forward(x, &y);
  Matrix grad_y(y.rows(), y.cols(), 1.0);
  Matrix grad_x;
  layer->Backward(grad_y, &grad_x);

  const auto params = layer->Params();
  const auto grads = layer->Grads();
  ASSERT_EQ(params.size(), grads.size());
  const double eps = 1e-6;
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t i = 0; i < params[p]->size(); ++i) {
      const double orig = params[p]->data()[i];
      params[p]->data()[i] = orig + eps;
      Matrix yp;
      layer->Forward(x, &yp);
      const double up = yp.Sum();
      params[p]->data()[i] = orig - eps;
      Matrix ym;
      layer->Forward(x, &ym);
      const double down = ym.Sum();
      params[p]->data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads[p]->data()[i], numeric, tol)
          << "param " << p << " index " << i;
    }
  }
}

// Same shape and the same bit pattern in every entry (so +0 != -0).
bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Backward(grad_y, nullptr) asks for parameter gradients only: they must be
// bit-identical to the ones a full backward (which also forms dL/dx)
// leaves behind.
void CheckParamOnlyBackward(const Layer& prototype, const Matrix& x,
                            Rng* rng) {
  std::unique_ptr<Layer> full = prototype.Clone();
  std::unique_ptr<Layer> params_only = prototype.Clone();
  Matrix y_full, y_params_only;
  full->Forward(x, &y_full);
  params_only->Forward(x, &y_params_only);
  ASSERT_TRUE(SameBits(y_full, y_params_only));
  Matrix grad_y(y_full.rows(), y_full.cols());
  grad_y.FillNormal(rng, 1.0);

  Matrix grad_x;
  full->Backward(grad_y, &grad_x);
  params_only->Backward(grad_y, nullptr);
  EXPECT_EQ(grad_x.rows(), x.rows());
  EXPECT_EQ(grad_x.cols(), x.cols());
  const std::vector<Matrix*> want = full->Grads();
  const std::vector<Matrix*> got = params_only->Grads();
  ASSERT_EQ(want.size(), got.size()) << prototype.name();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameBits(*want[i], *got[i]))
        << prototype.name() << " grad " << i;
  }
}

// ------------------------------------------------------------------- Dense

TEST(DenseTest, ForwardComputesAffine) {
  Rng rng(1);
  DenseLayer layer(2, 2, &rng);
  // Overwrite weights to known values via Params().
  Matrix* w = layer.Params()[0];
  Matrix* b = layer.Params()[1];
  (*w)(0, 0) = 1.0;
  (*w)(0, 1) = 2.0;
  (*w)(1, 0) = 3.0;
  (*w)(1, 1) = 4.0;
  (*b)(0, 0) = 0.5;
  (*b)(0, 1) = -0.5;
  Matrix x = {{1.0, 1.0}};
  Matrix y;
  layer.Forward(x, &y);
  EXPECT_DOUBLE_EQ(y(0, 0), 4.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 5.5);
}

TEST(DenseTest, InputGradientMatchesNumeric) {
  Rng rng(2);
  DenseLayer layer(4, 3, &rng);
  Matrix x(5, 4);
  x.FillNormal(&rng, 1.0);
  CheckInputGradient(&layer, x, 1e-5);
}

TEST(DenseTest, ParamGradientsMatchNumeric) {
  Rng rng(3);
  DenseLayer layer(3, 2, &rng);
  Matrix x(4, 3);
  x.FillNormal(&rng, 1.0);
  CheckParamGradients(&layer, x, 1e-5);
}

TEST(DenseTest, CloneIsDeep) {
  Rng rng(4);
  DenseLayer layer(2, 2, &rng);
  auto clone = layer.Clone();
  // Mutating the clone's params must not affect the original.
  clone->Params()[0]->Fill(0.0);
  EXPECT_GT(layer.weights().Norm(), 0.0);
}

TEST(DenseTest, ResetParametersChangesWeights) {
  Rng rng(5);
  DenseLayer layer(8, 8, &rng);
  const Matrix before = layer.weights();
  Rng rng2(6);
  layer.ResetParameters(&rng2);
  EXPECT_GT(MaxAbsDiff(before, layer.weights()), 0.0);
}

TEST(DenseTest, NameContainsDims) {
  Rng rng(7);
  DenseLayer layer(16, 10, &rng);
  EXPECT_EQ(layer.name(), "Dense(16->10)");
}

// -------------------------------------------------------------- Activations

TEST(ActivationTest, ReluForward) {
  ReluLayer relu;
  Matrix x = {{-1.0, 0.0, 2.0}};
  Matrix y;
  relu.Forward(x, &y);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(0, 1), 0.0);
  EXPECT_EQ(y(0, 2), 2.0);
}

TEST(ActivationTest, ReluGradientMasksNegatives) {
  ReluLayer relu;
  Matrix x = {{-1.0, 2.0}};
  Matrix y;
  relu.Forward(x, &y);
  Matrix grad_y = {{5.0, 5.0}};
  Matrix grad_x;
  relu.Backward(grad_y, &grad_x);
  EXPECT_EQ(grad_x(0, 0), 0.0);
  EXPECT_EQ(grad_x(0, 1), 5.0);
}

TEST(ActivationTest, LeakyReluForwardAndGradient) {
  LeakyReluLayer leaky(0.1);
  Matrix x = {{-2.0, 3.0}};
  Matrix y;
  leaky.Forward(x, &y);
  EXPECT_NEAR(y(0, 0), -0.2, 1e-12);
  EXPECT_EQ(y(0, 1), 3.0);
  Matrix grad_y = {{1.0, 1.0}};
  Matrix grad_x;
  leaky.Backward(grad_y, &grad_x);
  EXPECT_NEAR(grad_x(0, 0), 0.1, 1e-12);
  EXPECT_EQ(grad_x(0, 1), 1.0);
}

TEST(ActivationTest, SigmoidGradientMatchesNumeric) {
  SigmoidLayer sigmoid;
  Rng rng(8);
  Matrix x(3, 4);
  x.FillNormal(&rng, 2.0);
  CheckInputGradient(&sigmoid, x, 1e-5);
}

TEST(ActivationTest, TanhGradientMatchesNumeric) {
  TanhLayer tanh_layer;
  Rng rng(9);
  Matrix x(3, 4);
  x.FillNormal(&rng, 1.0);
  CheckInputGradient(&tanh_layer, x, 1e-5);
}

TEST(ActivationTest, SigmoidRange) {
  SigmoidLayer sigmoid;
  Matrix x = {{-100.0, 0.0, 100.0}};
  Matrix y;
  sigmoid.Forward(x, &y);
  EXPECT_NEAR(y(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(y(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(y(0, 2), 1.0, 1e-12);
}

// ---------------------------------------------------------------- Residual

TEST(ResidualTest, ForwardAddsSkip) {
  Rng rng(10);
  ResidualBlock block(3, 5, &rng);
  // Zero the branch weights: output must equal input exactly.
  for (Matrix* p : block.Params()) p->Zero();
  Matrix x = {{1.0, -2.0, 3.0}};
  Matrix y;
  block.Forward(x, &y);
  EXPECT_LT(MaxAbsDiff(x, y), 1e-12);
}

TEST(ResidualTest, InputGradientMatchesNumeric) {
  Rng rng(11);
  ResidualBlock block(4, 6, &rng);
  Matrix x(3, 4);
  x.FillNormal(&rng, 1.0);
  CheckInputGradient(&block, x, 1e-4);
}

TEST(ResidualTest, ParamGradientsMatchNumeric) {
  Rng rng(12);
  ResidualBlock block(3, 4, &rng);
  Matrix x(2, 3);
  x.FillNormal(&rng, 1.0);
  CheckParamGradients(&block, x, 1e-4);
}

TEST(ResidualTest, HasFourParamTensors) {
  Rng rng(13);
  ResidualBlock block(4, 8, &rng);
  EXPECT_EQ(block.Params().size(), 4u);
  EXPECT_EQ(block.Grads().size(), 4u);
}

// ------------------------------------------- parameter-only backward

TEST(ParamOnlyBackwardTest, MatchesFullBackwardForEveryLayer) {
  Rng rng(40);
  Matrix x(9, 6);
  x.FillNormal(&rng, 1.0);
  CheckParamOnlyBackward(DenseLayer(6, 3, &rng), x, &rng);
  CheckParamOnlyBackward(
      DenseLayer(6, 5, &rng, Init::kHe, DenseActivation::kRelu), x, &rng);
  CheckParamOnlyBackward(ResidualBlock(6, 4, &rng), x, &rng);
  DropoutLayer dropout(0.4, 3);
  dropout.set_training(true);
  CheckParamOnlyBackward(dropout, x, &rng);
  CheckParamOnlyBackward(ReluLayer(), x, &rng);
  CheckParamOnlyBackward(LeakyReluLayer(0.1), x, &rng);
  CheckParamOnlyBackward(SigmoidLayer(), x, &rng);
  CheckParamOnlyBackward(TanhLayer(), x, &rng);
}

// -------------------------------------------------------------------- Loss

TEST(LossTest, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Matrix logits(4, 10, 0.0);
  std::vector<int> labels = {0, 3, 7, 9};
  EXPECT_NEAR(loss.Forward(logits, labels), std::log(10.0), 1e-9);
}

TEST(LossTest, PerfectPredictionLowLoss) {
  SoftmaxCrossEntropy loss;
  Matrix logits(2, 3, 0.0);
  logits(0, 1) = 50.0;
  logits(1, 2) = 50.0;
  EXPECT_LT(loss.Forward(logits, {1, 2}), 1e-6);
}

TEST(LossTest, GradientIsSoftmaxMinusOneHotOverBatch) {
  SoftmaxCrossEntropy loss;
  Matrix logits(1, 3, 0.0);  // uniform -> probs 1/3
  loss.Forward(logits, {1});
  Matrix grad;
  loss.Backward(&grad);
  EXPECT_NEAR(grad(0, 0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(grad(0, 1), 1.0 / 3.0 - 1.0, 1e-9);
  EXPECT_NEAR(grad(0, 2), 1.0 / 3.0, 1e-9);
}

TEST(LossTest, GradientMatchesNumericLoss) {
  Rng rng(14);
  Matrix logits(3, 4);
  logits.FillNormal(&rng, 1.0);
  std::vector<int> labels = {2, 0, 3};
  SoftmaxCrossEntropy loss;
  loss.Forward(logits, labels);
  Matrix grad;
  loss.Backward(&grad);
  const double eps = 1e-6;
  for (size_t i = 0; i < logits.size(); ++i) {
    SoftmaxCrossEntropy probe;
    const double orig = logits.data()[i];
    logits.data()[i] = orig + eps;
    const double up = probe.Forward(logits, labels);
    logits.data()[i] = orig - eps;
    const double down = probe.Forward(logits, labels);
    logits.data()[i] = orig;
    EXPECT_NEAR(grad.data()[i], (up - down) / (2.0 * eps), 1e-5);
  }
}

TEST(LossTest, LogLossAndAccuracyHelpers) {
  Matrix probs = {{0.9, 0.1}, {0.2, 0.8}};
  EXPECT_NEAR(LogLoss(probs, {0, 1}),
              -(std::log(0.9) + std::log(0.8)) / 2.0, 1e-12);
  EXPECT_EQ(Accuracy(probs, {0, 1}), 1.0);
  EXPECT_EQ(Accuracy(probs, {1, 0}), 0.0);
}

// The fused softmax–cross-entropy must agree bit for bit with the unfused
// sequence it replaced: copy logits, SoftmaxRows, NLL loop, then
// (probs - onehot) / batch in three separate passes.
void ExpectFusedMatchesUnfused(const Matrix& logits,
                               const std::vector<int>& labels) {
  Matrix ref_probs = logits;
  SoftmaxRows(&ref_probs);
  double ref_loss = 0.0;
  for (size_t i = 0; i < labels.size(); ++i) {
    ref_loss -= SafeLog(ref_probs(i, static_cast<size_t>(labels[i])));
  }
  ref_loss /= static_cast<double>(labels.size());
  Matrix ref_grad = ref_probs;
  for (size_t i = 0; i < labels.size(); ++i) {
    ref_grad(i, static_cast<size_t>(labels[i])) -= 1.0;
  }
  ref_grad *= 1.0 / static_cast<double>(labels.size());

  SoftmaxCrossEntropy loss;
  const double fused_loss = loss.Forward(logits, labels);
  Matrix fused_grad;
  loss.Backward(&fused_grad);
  EXPECT_EQ(std::memcmp(&fused_loss, &ref_loss, sizeof(double)), 0)
      << fused_loss << " vs " << ref_loss;
  EXPECT_TRUE(SameBits(loss.probabilities(), ref_probs));
  EXPECT_TRUE(SameBits(fused_grad, ref_grad));
}

TEST(LossTest, FusedForwardBackwardMatchesUnfusedSequence) {
  Rng rng(30);
  Matrix logits(17, 5);
  logits.FillNormal(&rng, 2.0);
  std::vector<int> labels(logits.rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(uint64_t{5}));
  }
  ExpectFusedMatchesUnfused(logits, labels);
}

TEST(LossTest, FusedMatchesUnfusedOnEdgeLogits) {
  // Tied maxima: every tied entry takes the exp(0) == 1 shortcut.
  ExpectFusedMatchesUnfused(
      Matrix{{1.5, 1.5}, {0.0, 0.0}, {-2.0, 3.0}, {3.0, 3.0}}, {0, 1, 1, 0});
  ExpectFusedMatchesUnfused(Matrix{{0.25, -1.0, 0.25}, {-0.0, 0.0, -7.0}},
                            {2, 0});
  // +-1e3 logits: the losing class underflows to probability 0.
  ExpectFusedMatchesUnfused(
      Matrix{{1e3, -1e3}, {-1e3, 1e3}, {1e3, 1e3}, {-1e3, -1e3}},
      {1, 1, 0, 1});
  // One column: every entry is its row's maximum.
  ExpectFusedMatchesUnfused(Matrix{{0.3}, {-4.0}, {1e3}}, {0, 0, 0});
}

TEST(LossTest, EmptyLabelsAreZero) {
  Matrix probs(0, 2);
  EXPECT_EQ(LogLoss(probs, {}), 0.0);
  EXPECT_EQ(Accuracy(probs, {}), 0.0);
}

// -------------------------------------------------------------- Optimizers

TEST(OptimizerTest, SgdStepsAgainstGradient) {
  Matrix p(1, 2, 1.0);
  Matrix g = {{0.5, -0.5}};
  Sgd sgd(0.1);
  sgd.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), 0.95, 1e-12);
  EXPECT_NEAR(p(0, 1), 1.05, 1e-12);
}

TEST(OptimizerTest, SgdWeightDecayShrinksParams) {
  Matrix p(1, 1, 1.0);
  Matrix g(1, 1, 0.0);
  Sgd sgd(0.1, 0.5);
  sgd.Step({&p}, {&g});
  EXPECT_NEAR(p(0, 0), 0.95, 1e-12);
}

TEST(OptimizerTest, MomentumAcceleratesRepeatedGradient) {
  Matrix p1(1, 1, 0.0), g(1, 1, 1.0);
  Sgd sgd(0.1);
  Matrix p2(1, 1, 0.0);
  SgdMomentum mom(0.1, 0.9);
  for (int i = 0; i < 5; ++i) {
    Matrix gc = g;
    sgd.Step({&p1}, {&gc});
    gc = g;
    mom.Step({&p2}, {&gc});
  }
  // Momentum must have traveled farther under a constant gradient.
  EXPECT_LT(p2(0, 0), p1(0, 0));
}

TEST(OptimizerTest, AdamFirstStepHasLrMagnitude) {
  Matrix p(1, 1, 0.0);
  Matrix g(1, 1, 123.0);
  Adam adam(0.01);
  adam.Step({&p}, {&g});
  // After bias correction, the first Adam step is ~ -lr * sign(g).
  EXPECT_NEAR(p(0, 0), -0.01, 1e-6);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize (p - 3)^2 with gradient 2 (p - 3).
  Matrix p(1, 1, 0.0);
  Adam adam(0.1);
  for (int i = 0; i < 500; ++i) {
    Matrix g(1, 1, 2.0 * (p(0, 0) - 3.0));
    adam.Step({&p}, {&g});
  }
  EXPECT_NEAR(p(0, 0), 3.0, 1e-2);
}

TEST(OptimizerTest, FactoryProducesRequestedKind) {
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kSgd, 0.1)->name(), "SGD");
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kMomentum, 0.1)->name(),
            "SGD+momentum");
  EXPECT_EQ(MakeOptimizer(OptimizerKind::kAdam, 0.1)->name(), "Adam");
}

// ------------------------------------------------------------------- Model

TEST(ModelTest, BuildLogisticRegression) {
  Rng rng(15);
  Model m = BuildModel(ModelSpec{8, 3, {}, 0, 32}, &rng);
  EXPECT_EQ(m.num_layers(), 1u);
  EXPECT_EQ(m.NumParameters(), 8u * 3u + 3u);
}

TEST(ModelTest, BuildMlpLayerCount) {
  Rng rng(16);
  Model m = BuildModel(ModelSpec{8, 3, {16, 8}, 0, 32}, &rng);
  // Fused DenseReLU, fused DenseReLU, Dense head.
  EXPECT_EQ(m.num_layers(), 3u);
  EXPECT_NE(m.ToString().find("DenseReLU"), std::string::npos);
}

TEST(ModelTest, BuildResidualModel) {
  Rng rng(17);
  Model m = BuildModel(ModelSpec{8, 3, {16}, 2, 8}, &rng);
  EXPECT_EQ(m.num_layers(), 4u);  // fused DenseReLU, Res, Res, head
  EXPECT_NE(m.ToString().find("Residual"), std::string::npos);
}

TEST(ModelTest, PredictRowsAreDistributions) {
  Rng rng(18);
  Model m = BuildModel(ModelSpec{4, 5, {8}, 0, 32}, &rng);
  Matrix x(7, 4);
  x.FillNormal(&rng, 1.0);
  Matrix probs;
  m.Predict(x, &probs);
  ASSERT_EQ(probs.rows(), 7u);
  ASSERT_EQ(probs.cols(), 5u);
  for (size_t r = 0; r < probs.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < probs.cols(); ++c) sum += probs(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ModelTest, CopyIsDeep) {
  Rng rng(19);
  Model a = BuildModel(ModelSpec{4, 2, {8}, 0, 32}, &rng);
  Model b = a;
  for (Matrix* p : b.Params()) p->Zero();
  // Original unaffected.
  double norm = 0.0;
  for (Matrix* p : a.Params()) norm += p->Norm();
  EXPECT_GT(norm, 0.0);
}

TEST(ModelTest, ForwardBackwardReducesLossWithSgd) {
  Rng rng(20);
  Model m = BuildModel(ModelSpec{2, 2, {8}, 0, 32}, &rng);
  Matrix x = {{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {-1.0, -1.0}};
  std::vector<int> labels = {0, 1, 0, 1};
  Sgd sgd(0.5);
  const double initial = m.ForwardBackward(x, labels);
  for (int i = 0; i < 200; ++i) {
    m.ForwardBackward(x, labels);
    sgd.Step(m.Params(), m.Grads());
  }
  EXPECT_LT(m.ForwardBackward(x, labels), initial * 0.5);
}

// ----------------------------------------------------------------- Trainer

Matrix TwoBlobFeatures(std::vector<int>* labels, Rng* rng, size_t n) {
  Matrix x(n, 2);
  labels->clear();
  for (size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    const double cx = label == 0 ? -2.0 : 2.0;
    x(i, 0) = rng->Normal(cx, 0.7);
    x(i, 1) = rng->Normal(cx, 0.7);
    labels->push_back(label);
  }
  return x;
}

TEST(TrainerTest, LearnsSeparableBlobs) {
  Rng rng(21);
  std::vector<int> labels;
  const Matrix x = TwoBlobFeatures(&labels, &rng, 200);
  Model m = BuildModel(ModelSpec{2, 2, {8}, 0, 32}, &rng);
  TrainerOptions opts;
  opts.epochs = 30;
  const auto log = Train(&m, x, labels, opts);
  ASSERT_TRUE(log.ok());
  EXPECT_GT(EvaluateAccuracy(&m, x, labels), 0.95);
  EXPECT_LT(EvaluateLogLoss(&m, x, labels), 0.2);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Rng rng(22);
  std::vector<int> labels;
  const Matrix x = TwoBlobFeatures(&labels, &rng, 200);
  Model m = BuildModel(ModelSpec{2, 2, {8}, 0, 32}, &rng);
  TrainerOptions opts;
  opts.epochs = 20;
  const auto log = Train(&m, x, labels, opts);
  ASSERT_TRUE(log.ok());
  EXPECT_LT(log->epoch_losses.back(), log->epoch_losses.front());
}

TEST(TrainerTest, DeterministicGivenSeed) {
  Rng data_rng(23);
  std::vector<int> labels;
  const Matrix x = TwoBlobFeatures(&labels, &data_rng, 100);
  TrainerOptions opts;
  opts.epochs = 5;
  opts.seed = 77;
  Rng r1(50), r2(50);
  Model m1 = BuildModel(ModelSpec{2, 2, {4}, 0, 32}, &r1);
  Model m2 = BuildModel(ModelSpec{2, 2, {4}, 0, 32}, &r2);
  ASSERT_TRUE(Train(&m1, x, labels, opts).ok());
  ASSERT_TRUE(Train(&m2, x, labels, opts).ok());
  Matrix p1, p2;
  m1.Predict(x, &p1);
  m2.Predict(x, &p2);
  EXPECT_LT(MaxAbsDiff(p1, p2), 1e-12);
}

TEST(TrainerTest, BitIdenticalTrajectoryAcrossTensorThreads) {
  // Same seed, same data, different intra-op lane counts: the blocked
  // kernels' fixed accumulation order must make the whole training
  // trajectory — not just the final loss — bit-identical. The model is
  // sized so its GEMMs clear the intra-op parallel threshold.
  Rng data_rng(31);
  const size_t n = 600;
  Matrix x(n, 128);
  x.FillNormal(&data_rng, 1.0);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  TrainerOptions opts;
  opts.epochs = 3;
  opts.batch_size = 300;
  opts.seed = 99;

  Rng r1(60), r4(60);
  Model m1 = BuildModel(ModelSpec{128, 2, {128}, 0, 32}, &r1);
  Model m4 = BuildModel(ModelSpec{128, 2, {128}, 0, 32}, &r4);
  SetTensorOpThreads(1);
  const auto log1 = Train(&m1, x, labels, opts);
  SetTensorOpThreads(4);
  const auto log4 = Train(&m4, x, labels, opts);
  SetTensorOpThreads(0);
  ASSERT_TRUE(log1.ok());
  ASSERT_TRUE(log4.ok());
  ASSERT_EQ(log1->epoch_losses.size(), log4->epoch_losses.size());
  for (size_t e = 0; e < log1->epoch_losses.size(); ++e) {
    EXPECT_EQ(log1->epoch_losses[e], log4->epoch_losses[e]) << "epoch " << e;
  }
  const auto p1 = m1.Params();
  const auto p4 = m4.Params();
  ASSERT_EQ(p1.size(), p4.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_TRUE(*p1[i] == *p4[i]) << "param tensor " << i;
  }
}

TEST(TrainerTest, RejectsShapeMismatch) {
  Rng rng(24);
  Model m = BuildModel(ModelSpec{2, 2, {}, 0, 32}, &rng);
  Matrix x(3, 2);
  EXPECT_EQ(Train(&m, x, {0, 1}, TrainerOptions()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TrainerTest, RejectsEmptyData) {
  Rng rng(25);
  Model m = BuildModel(ModelSpec{2, 2, {}, 0, 32}, &rng);
  Matrix x(0, 2);
  EXPECT_FALSE(Train(&m, x, {}, TrainerOptions()).ok());
}

TEST(TrainerTest, RejectsBadHyperparameters) {
  Rng rng(26);
  Model m = BuildModel(ModelSpec{2, 2, {}, 0, 32}, &rng);
  Matrix x(2, 2, 1.0);
  TrainerOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_FALSE(Train(&m, x, {0, 1}, zero_batch).ok());
  TrainerOptions zero_epochs;
  zero_epochs.epochs = 0;
  EXPECT_FALSE(Train(&m, x, {0, 1}, zero_epochs).ok());
}

TEST(TrainerTest, LossFloorStopsEarly) {
  Rng rng(27);
  std::vector<int> labels;
  const Matrix x = TwoBlobFeatures(&labels, &rng, 100);
  Model m = BuildModel(ModelSpec{2, 2, {16}, 0, 32}, &rng);
  TrainerOptions opts;
  opts.epochs = 500;
  opts.loss_floor = 0.3;  // very loose floor: should stop well before 500
  const auto log = Train(&m, x, labels, opts);
  ASSERT_TRUE(log.ok());
  EXPECT_LT(log->epochs_run, 500);
}

}  // namespace
}  // namespace slicetuner
