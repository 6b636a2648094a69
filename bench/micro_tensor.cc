// Tensor-kernel microbenchmark: naive reference vs. cache-blocked (and
// ParallelFor-threaded) GEMM kernels, the fused bias epilogue, the fused
// softmax–cross-entropy, the matrix-at-a-time trainer, and the logistic
// head every serve session trains (32x8x2 GEMM, 800x8 logistic regression).
//
// Every blocked kernel is validated against its naive reference on the
// benchmark inputs (bit-identical output is the contract) and the threaded
// run is validated against the single-threaded run; any mismatch makes the
// bench exit non-zero so CI cannot pass on a broken kernel. A summary is
// written to results/BENCH_tensor.json for the benchmark-regression gate.
//
// Usage: bench_micro_tensor [--threads=N] [--repeats=R] [--size=N]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "tensor/ops.h"

namespace slicetuner {
namespace {

using KernelFn = void (*)(const Matrix&, const Matrix&, Matrix*);

bool g_ok = true;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    g_ok = false;
  }
}

double TimeKernel(KernelFn fn, const Matrix& a, const Matrix& b, Matrix* out,
                  int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch timer;
    fn(a, b, out);
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct KernelResult {
  double naive_seconds = 0.0;
  double blocked_seconds = 0.0;   // 1 intra-op lane
  double threaded_seconds = 0.0;  // --threads lanes
};

// Times `naive` vs `blocked` at 1 and at `threads` lanes and checks that all
// three produce identical bits.
KernelResult RunKernel(const char* label, KernelFn naive, KernelFn blocked,
                       const Matrix& a, const Matrix& b, int threads,
                       int repeats) {
  Matrix ref, one, many;
  KernelResult r;
  r.naive_seconds = TimeKernel(naive, a, b, &ref, repeats);
  SetTensorOpThreads(1);
  r.blocked_seconds = TimeKernel(blocked, a, b, &one, repeats);
  SetTensorOpThreads(threads);
  r.threaded_seconds = TimeKernel(blocked, a, b, &many, repeats);
  SetTensorOpThreads(0);
  Check(MaxAbsDiff(ref, one) == 0.0, "blocked kernel != naive reference");
  Check(one == many, "threaded kernel bits != single-threaded bits");
  std::printf("%-12s naive %.4fs | blocked(x1) %.4fs (%.2fx) | "
              "blocked(x%d) %.4fs (%.2fx)\n",
              label, r.naive_seconds, r.blocked_seconds,
              r.naive_seconds / r.blocked_seconds, threads,
              r.threaded_seconds, r.naive_seconds / r.threaded_seconds);
  return r;
}

}  // namespace
}  // namespace slicetuner

int main(int argc, char** argv) {
  using namespace slicetuner;
  const int threads = bench::ParseThreadsFlag(argc, argv, /*default=*/0);
  const int repeats = std::max(
      1, bench::ParseIntFlag(argc, argv, "--repeats=", /*default=*/3));
  const size_t size = static_cast<size_t>(std::max(
      32, bench::ParseIntFlag(argc, argv, "--size=", /*default=*/512)));
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("=== Tensor microbenchmark: %zux%zu kernels ===\n", size, size);
  std::printf("hardware cores: %u, intra-op lanes: %s, repeats: %d\n", cores,
              threads == 0 ? "all" : std::to_string(threads).c_str(),
              repeats);

  Rng rng(7);
  Matrix a(size, size), b(size, size);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);

  const KernelResult gemm = RunKernel("GEMM", MatMulNaive, MatMul, a, b,
                                      threads, repeats);
  const KernelResult gemm_tb =
      RunKernel("GEMM a*b^T", MatMulTransposedBNaive, MatMulTransposedB, a, b,
                threads, repeats);
  const KernelResult gemm_ta =
      RunKernel("GEMM a^T*b", MatMulTransposedANaive, MatMulTransposedA, a, b,
                threads, repeats);

  // Fused bias epilogue vs. GEMM + broadcast pass.
  Matrix bias(1, size);
  bias.FillNormal(&rng, 1.0);
  Matrix unfused_out, fused_out;
  double unfused_best = 1e300, fused_best = 1e300;
  SetTensorOpThreads(threads);
  for (int r = 0; r < repeats; ++r) {
    Stopwatch t1;
    MatMul(a, b, &unfused_out);
    AddRowBroadcast(&unfused_out, bias);
    unfused_best = std::min(unfused_best, t1.ElapsedSeconds());
    Stopwatch t2;
    MatMulBias(a, b, bias, &fused_out);
    fused_best = std::min(fused_best, t2.ElapsedSeconds());
  }
  SetTensorOpThreads(0);
  Check(unfused_out == fused_out, "MatMulBias bits != MatMul+AddRowBroadcast");
  std::printf("%-12s unfused %.4fs | fused %.4fs (%.2fx)\n", "bias epilogue",
              unfused_best, fused_best, unfused_best / fused_best);

  // Fused softmax–cross-entropy forward/backward (4096 x 10 logits).
  Matrix logits(4096, 10);
  logits.FillNormal(&rng, 2.0);
  std::vector<int> labels(logits.rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(rng.UniformInt(uint64_t{10}));
  }
  SoftmaxCrossEntropy loss;
  Matrix grad;
  double loss_best = 1e300;
  double loss_value = 0.0;
  for (int r = 0; r < repeats * 10; ++r) {
    Stopwatch t;
    loss_value = loss.Forward(logits, labels);
    loss.Backward(&grad);
    loss_best = std::min(loss_best, t.ElapsedSeconds());
  }
  Check(std::isfinite(loss_value), "softmax-xent loss not finite");
  std::printf("%-12s fused fwd+bwd %.5fs (loss %.4f)\n", "softmax-xent",
              loss_best, loss_value);

  // End-to-end minibatch training: 2000 x 16 blobs through a 16-64-64-2 MLP
  // (the shape of a curve-estimation training), matrix-at-a-time batches.
  Matrix train_x(2000, 16);
  std::vector<int> train_y(train_x.rows());
  for (size_t i = 0; i < train_x.rows(); ++i) {
    const int label = static_cast<int>(i % 2);
    for (size_t d = 0; d < train_x.cols(); ++d) {
      train_x(i, d) = rng.Normal(label == 0 ? -1.0 : 1.0, 1.0);
    }
    train_y[i] = label;
  }
  double train_best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Rng model_rng(11);
    Model model = BuildModel(ModelSpec{16, 2, {64, 64}, 0, 32}, &model_rng);
    TrainerOptions opts;
    opts.epochs = 5;
    opts.seed = 13;
    Stopwatch t;
    const auto log = Train(&model, train_x, train_y, opts);
    train_best = std::min(train_best, t.ElapsedSeconds());
    Check(log.ok(), "trainer returned an error");
  }
  std::printf("%-12s 5 epochs of 2000x16 MLP(64,64): %.4fs\n", "trainer",
              train_best);

  // Logistic head: the serve model's shape. One 32x8 batch through the
  // 8->2 logits GEMM (the narrow-output kernel), checked bit for bit
  // against the naive kernel plus a broadcast pass, then a whole 800x8
  // logistic-regression training at the serve trainer's settings.
  Matrix head_x(32, 8), head_w(8, 2), head_b(1, 2);
  head_x.FillNormal(&rng, 1.0);
  head_w.FillNormal(&rng, 1.0);
  head_b.FillNormal(&rng, 1.0);
  Matrix head_ref, head_out;
  MatMulNaive(head_x, head_w, &head_ref);
  AddRowBroadcast(&head_ref, head_b);
  MatMulBias(head_x, head_w, head_b, &head_out);
  Check(head_ref.SameShape(head_out) &&
            std::memcmp(head_ref.data(), head_out.data(),
                        head_ref.size() * sizeof(double)) == 0,
        "32x8x2 MatMulBias bits != MatMulNaive+AddRowBroadcast");
  Matrix logreg_x(800, 8);
  std::vector<int> logreg_y(logreg_x.rows());
  for (size_t i = 0; i < logreg_x.rows(); ++i) {
    const int label = static_cast<int>(i % 2);
    for (size_t d = 0; d < logreg_x.cols(); ++d) {
      logreg_x(i, d) = rng.Normal(label == 0 ? -0.5 : 0.5, 1.0);
    }
    logreg_y[i] = label;
  }
  double logreg_best = 1e300;
  for (int r = 0; r < repeats * 10; ++r) {
    Rng model_rng(17);
    Model model = BuildModel(ModelSpec{8, 2, {}, 0, 32}, &model_rng);
    TrainerOptions opts;
    opts.epochs = 8;
    opts.batch_size = 32;
    opts.learning_rate = 0.05;
    opts.seed = 19;
    Stopwatch t;
    const auto log = Train(&model, logreg_x, logreg_y, opts);
    logreg_best = std::min(logreg_best, t.ElapsedSeconds());
    Check(log.ok(), "logistic-regression trainer returned an error");
  }
  std::printf("%-12s 8 epochs of 800x8 logistic regression: %.6fs\n",
              "logistic", logreg_best);

  const double gemm_speedup = gemm.naive_seconds / gemm.threaded_seconds;
  const std::string json_path = bench::ResultsDir() + "/BENCH_tensor.json";
  ST_CHECK_OK(bench::WriteBenchJson(
      json_path,
      {{"bench", "\"tensor_kernels\""},
       {"size", StrFormat("%zu", size)},
       {"hardware_cores", StrFormat("%u", cores)},
       {"threads", StrFormat("%d", threads)},
       {"repeats", StrFormat("%d", repeats)},
       {"gemm_naive_seconds", FormatDouble(gemm.naive_seconds, 4)},
       {"gemm_blocked_seconds", FormatDouble(gemm.blocked_seconds, 4)},
       {"gemm_threaded_seconds", FormatDouble(gemm.threaded_seconds, 4)},
       {"gemm_speedup", FormatDouble(gemm_speedup, 3)},
       {"gemm_tb_naive_seconds", FormatDouble(gemm_tb.naive_seconds, 4)},
       {"gemm_tb_threaded_seconds",
        FormatDouble(gemm_tb.threaded_seconds, 4)},
       {"gemm_tb_speedup",
        FormatDouble(gemm_tb.naive_seconds / gemm_tb.threaded_seconds, 3)},
       {"gemm_ta_naive_seconds", FormatDouble(gemm_ta.naive_seconds, 4)},
       {"gemm_ta_threaded_seconds",
        FormatDouble(gemm_ta.threaded_seconds, 4)},
       {"gemm_ta_speedup",
        FormatDouble(gemm_ta.naive_seconds / gemm_ta.threaded_seconds, 3)},
       {"fused_bias_seconds", FormatDouble(fused_best, 4)},
       {"softmax_xent_seconds", FormatDouble(loss_best, 5)},
       {"trainer_seconds", FormatDouble(train_best, 4)},
       {"trainer_logreg_seconds", FormatDouble(logreg_best, 6)},
       {"kernels_bit_identical", g_ok ? "true" : "false"}}));
  std::printf("Summary written to %s\n", json_path.c_str());
  if (!g_ok) {
    std::fprintf(stderr, "tensor kernel validation FAILED\n");
    return 1;
  }
  return 0;
}
