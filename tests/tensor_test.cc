// Unit tests for the tensor substrate: Matrix storage/initializers and the
// matmul/softmax kernels, including gradient-identity checks used by the NN.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace slicetuner {
namespace {

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_EQ(m(r, c), 1.5);
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerListPadsWithZero) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0}};
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 1), 0.0);
  EXPECT_EQ(m(1, 2), 0.0);
}

TEST(MatrixTest, FillAndZero) {
  Matrix m(3, 3);
  m.Fill(2.0);
  EXPECT_EQ(m.Sum(), 18.0);
  m.Zero();
  EXPECT_EQ(m.Sum(), 0.0);
}

TEST(MatrixTest, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.Sum(), 0.0);
}

TEST(MatrixTest, Transposed) {
  Matrix m = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t(2, 0), 3.0);
  // Double transpose is identity.
  EXPECT_TRUE(t.Transposed() == m);
}

TEST(MatrixTest, RowCopyAndGatherRows) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const Matrix row = m.RowCopy(1);
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row(0, 0), 3.0);
  const Matrix g = m.GatherRows({2, 0});
  EXPECT_EQ(g.rows(), 2u);
  EXPECT_EQ(g(0, 0), 5.0);
  EXPECT_EQ(g(1, 1), 2.0);
}

TEST(MatrixTest, NormAndSum) {
  Matrix m = {{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 7.0);
}

TEST(MatrixTest, ArgMaxRow) {
  Matrix m = {{0.1, 0.7, 0.2}, {0.9, 0.05, 0.05}};
  EXPECT_EQ(m.ArgMaxRow(0), 1u);
  EXPECT_EQ(m.ArgMaxRow(1), 0u);
}

TEST(MatrixTest, InPlaceArithmetic) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{3.0, 4.0}};
  a += b;
  EXPECT_EQ(a(0, 0), 4.0);
  a -= b;
  EXPECT_EQ(a(0, 1), 2.0);
  a *= 2.0;
  EXPECT_EQ(a(0, 0), 2.0);
}

TEST(MatrixTest, GlorotInitWithinLimit) {
  Rng rng(3);
  Matrix w(64, 32);
  w.FillGlorot(&rng);
  const double limit = std::sqrt(6.0 / (64 + 32));
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), limit);
  }
  // Not all zero.
  EXPECT_GT(w.Norm(), 0.0);
}

TEST(MatrixTest, HeInitVariance) {
  Rng rng(4);
  Matrix w(200, 100);
  w.FillHe(&rng);
  double sumsq = 0.0;
  for (size_t i = 0; i < w.size(); ++i) sumsq += w.data()[i] * w.data()[i];
  // Var should be about 2 / fan_in = 0.01.
  EXPECT_NEAR(sumsq / static_cast<double>(w.size()), 0.01, 0.002);
}

TEST(MatrixTest, EqualityOperator) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.0, 2.0}};
  Matrix c = {{1.0, 3.0}};
  Matrix d(2, 1);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(MatrixTest, ToStringMentionsShape) {
  Matrix m(2, 2);
  EXPECT_NE(m.ToString().find("2x2"), std::string::npos);
}

// --------------------------------------------------------------------- ops

TEST(OpsTest, MatMulKnownProduct) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  Matrix out;
  MatMul(a, b, &out);
  EXPECT_EQ(out(0, 0), 19.0);
  EXPECT_EQ(out(0, 1), 22.0);
  EXPECT_EQ(out(1, 0), 43.0);
  EXPECT_EQ(out(1, 1), 50.0);
}

TEST(OpsTest, MatMulIdentity) {
  Rng rng(5);
  Matrix a(4, 4);
  a.FillNormal(&rng, 1.0);
  Matrix eye(4, 4);
  for (size_t i = 0; i < 4; ++i) eye(i, i) = 1.0;
  Matrix out;
  MatMul(a, eye, &out);
  EXPECT_LT(MaxAbsDiff(out, a), 1e-12);
}

TEST(OpsTest, MatMulRectangular) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 2.0);
  Matrix out;
  MatMul(a, b, &out);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 4u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.data()[i], 6.0);
}

TEST(OpsTest, MatMulTransposedBMatchesExplicitTranspose) {
  Rng rng(6);
  Matrix a(3, 5);
  Matrix b(4, 5);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);
  Matrix expected, got;
  MatMul(a, b.Transposed(), &expected);
  MatMulTransposedB(a, b, &got);
  EXPECT_LT(MaxAbsDiff(expected, got), 1e-12);
}

TEST(OpsTest, MatMulTransposedAMatchesExplicitTranspose) {
  Rng rng(7);
  Matrix a(5, 3);
  Matrix b(5, 4);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);
  Matrix expected, got;
  MatMul(a.Transposed(), b, &expected);
  MatMulTransposedA(a, b, &got);
  EXPECT_LT(MaxAbsDiff(expected, got), 1e-12);
}

TEST(OpsTest, AddRowBroadcast) {
  Matrix m(2, 3, 1.0);
  Matrix bias = {{1.0, 2.0, 3.0}};
  AddRowBroadcast(&m, bias);
  EXPECT_EQ(m(0, 0), 2.0);
  EXPECT_EQ(m(1, 2), 4.0);
}

TEST(OpsTest, ColumnSum) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Matrix out;
  ColumnSum(m, &out);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out(0, 0), 9.0);
  EXPECT_EQ(out(0, 1), 12.0);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Matrix m = {{1.0, 2.0, 3.0}, {-5.0, 0.0, 5.0}};
  SoftmaxRows(&m);
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(m(r, c), 0.0);
      sum += m(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Monotone in logits.
  EXPECT_LT(m(0, 0), m(0, 1));
  EXPECT_LT(m(0, 1), m(0, 2));
}

TEST(OpsTest, SoftmaxStableForHugeLogits) {
  Matrix m = {{1000.0, 1000.0}};
  SoftmaxRows(&m);
  EXPECT_NEAR(m(0, 0), 0.5, 1e-9);
  EXPECT_FALSE(std::isnan(m(0, 1)));
}

TEST(OpsTest, HadamardProduct) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = {{2.0, 0.5}, {1.0, 0.25}};
  Matrix out;
  Hadamard(a, b, &out);
  EXPECT_EQ(out(0, 0), 2.0);
  EXPECT_EQ(out(0, 1), 1.0);
  EXPECT_EQ(out(1, 1), 1.0);
}

TEST(OpsTest, AddSubScale) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{0.5, 0.5}};
  EXPECT_EQ(Add(a, b)(0, 0), 1.5);
  EXPECT_EQ(Sub(a, b)(0, 1), 1.5);
  EXPECT_EQ(Scale(a, 3.0)(0, 1), 6.0);
}

TEST(OpsTest, MaxAbsDiff) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.5, 1.0}};
  EXPECT_EQ(MaxAbsDiff(a, b), 1.0);
  EXPECT_EQ(MaxAbsDiff(a, a), 0.0);
}

// ----------------------------------------------- blocked kernels vs naive

// The blocked kernels promise bit-identical results to the naive reference
// (up to the sign of exactly-zero entries, which both MaxAbsDiff and
// operator== treat as equal). Exercised across odd, non-square, tiny, and
// large shapes and at 1 vs 4 intra-op threads.

struct GemmShape {
  size_t m, k, n;
};

const GemmShape kShapes[] = {
    {1, 1, 1},    {2, 3, 2},     {3, 5, 7},    {17, 1, 9},
    {1, 128, 1},  {100, 1, 100}, {64, 64, 64}, {65, 33, 47},
    {31, 257, 5}, {130, 70, 90}, {5, 513, 129}};

void FillSigned(Matrix* m, Rng* rng) { m->FillNormal(rng, 1.0); }

TEST(BlockedKernelTest, MatMulMatchesNaiveAcrossShapes) {
  Rng rng(101);
  for (const GemmShape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    Matrix ref, got;
    MatMulNaive(a, b, &ref);
    MatMul(a, b, &got);
    EXPECT_EQ(MaxAbsDiff(ref, got), 0.0)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedKernelTest, MatMulTransposedBMatchesNaiveAcrossShapes) {
  Rng rng(102);
  for (const GemmShape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.n, s.k);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    Matrix ref, got;
    MatMulTransposedBNaive(a, b, &ref);
    MatMulTransposedB(a, b, &got);
    EXPECT_EQ(MaxAbsDiff(ref, got), 0.0)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedKernelTest, MatMulTransposedAMatchesNaiveAcrossShapes) {
  Rng rng(103);
  for (const GemmShape& s : kShapes) {
    Matrix a(s.k, s.m), b(s.k, s.n);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    Matrix ref, got;
    MatMulTransposedANaive(a, b, &ref);
    MatMulTransposedA(a, b, &got);
    EXPECT_EQ(MaxAbsDiff(ref, got), 0.0)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedKernelTest, MatchesNaiveOnReluSparseInput) {
  // Exact zeros in the left operand take the naive kernel's skip branch;
  // the blocked kernel must still agree (zero signs aside).
  Rng rng(104);
  Matrix a(70, 65), b(65, 33);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);
  double* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) {
    if (p[i] < 0.0) p[i] = 0.0;  // ReLU-style sparsity
  }
  Matrix ref, got;
  MatMulNaive(a, b, &ref);
  MatMul(a, b, &got);
  EXPECT_EQ(MaxAbsDiff(ref, got), 0.0);
  // a^T * b2 reduces over a's 70 rows; b2 must share that row count.
  Matrix b2(70, 33);
  b2.FillNormal(&rng, 1.0);
  MatMulTransposedANaive(a, b2, &ref);
  MatMulTransposedA(a, b2, &got);
  EXPECT_EQ(MaxAbsDiff(ref, got), 0.0);
}

TEST(BlockedKernelTest, BitIdenticalAcrossThreadCounts) {
  // Above the parallel threshold so the threaded path actually engages.
  Rng rng(105);
  Matrix a(256, 192), b(192, 256);
  FillSigned(&a, &rng);
  FillSigned(&b, &rng);
  Matrix one, four;
  SetTensorOpThreads(1);
  MatMul(a, b, &one);
  SetTensorOpThreads(4);
  MatMul(a, b, &four);
  EXPECT_TRUE(one == four);
  Matrix tb1, tb4;
  SetTensorOpThreads(1);
  MatMulTransposedB(a, b.Transposed(), &tb1);
  SetTensorOpThreads(4);
  MatMulTransposedB(a, b.Transposed(), &tb4);
  EXPECT_TRUE(tb1 == tb4);
  // MatMulTransposedA contracts over rows: both operands need a.rows()
  // rows (the previous b operand had 192 and read past the end).
  const Matrix bt = b.Transposed();
  Matrix ta1, ta4;
  SetTensorOpThreads(1);
  MatMulTransposedA(a, bt, &ta1);
  SetTensorOpThreads(4);
  MatMulTransposedA(a, bt, &ta4);
  EXPECT_TRUE(ta1 == ta4);
  SetTensorOpThreads(0);
}

TEST(BlockedKernelTest, FusedBiasMatchesUnfusedSequence) {
  Rng rng(106);
  for (const GemmShape& s : kShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n), bias(1, s.n);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    FillSigned(&bias, &rng);
    Matrix unfused, fused;
    MatMul(a, b, &unfused);
    AddRowBroadcast(&unfused, bias);
    MatMulBias(a, b, bias, &fused);
    EXPECT_TRUE(unfused == fused)
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

// Narrow outputs (n <= 4, the logits head) take register-accumulator
// kernels; they must reproduce the naive kernels bit for bit, +-0 included.
const GemmShape kNarrowShapes[] = {
    {32, 8, 2}, {7, 8, 1}, {160, 8, 2}, {33, 5, 3}, {64, 64, 4}};

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(BlockedKernelTest, NarrowBiasGemmMatchesNaivePlusBroadcast) {
  Rng rng(107);
  for (const GemmShape& s : kNarrowShapes) {
    Matrix a(s.m, s.k), b(s.k, s.n), bias(1, s.n);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    FillSigned(&bias, &rng);
    Matrix ref, fused, plain;
    MatMulNaive(a, b, &ref);
    MatMul(a, b, &plain);
    EXPECT_TRUE(SameBits(ref, plain))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
    AddRowBroadcast(&ref, bias);
    MatMulBias(a, b, bias, &fused);
    EXPECT_TRUE(SameBits(ref, fused))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedKernelTest, NarrowTransposedAMatchesNaive) {
  // a^T * b with a: m x k and b: m x n, the shape of the head's dW.
  Rng rng(108);
  for (const GemmShape& s : kNarrowShapes) {
    Matrix a(s.m, s.k), b(s.m, s.n);
    FillSigned(&a, &rng);
    FillSigned(&b, &rng);
    Matrix ref, got;
    MatMulTransposedANaive(a, b, &ref);
    MatMulTransposedA(a, b, &got);
    EXPECT_TRUE(SameBits(ref, got))
        << "shape " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(BlockedKernelTest, ThreadSettingRoundTrips) {
  SetTensorOpThreads(3);
  EXPECT_EQ(GetTensorOpThreads(), 3);
  SetTensorOpThreads(0);
  EXPECT_EQ(GetTensorOpThreads(), 0);
}

// Associativity sanity on random matrices: (AB)C == A(BC).
TEST(OpsTest, MatMulAssociativity) {
  Rng rng(8);
  Matrix a(3, 4), b(4, 5), c(5, 2);
  a.FillNormal(&rng, 1.0);
  b.FillNormal(&rng, 1.0);
  c.FillNormal(&rng, 1.0);
  Matrix ab, abc1, bc, abc2;
  MatMul(a, b, &ab);
  MatMul(ab, c, &abc1);
  MatMul(b, c, &bc);
  MatMul(a, bc, &abc2);
  EXPECT_LT(MaxAbsDiff(abc1, abc2), 1e-10);
}

}  // namespace
}  // namespace slicetuner
