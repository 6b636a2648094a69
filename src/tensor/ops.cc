#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/parallel_for.h"

// Function multi-versioning for the block kernels: on x86-64 the runtime
// picks an AVX2 clone when the CPU has it, else the baseline build. The AVX2
// target deliberately excludes FMA, so the clone evaluates the identical
// multiply-then-add sequence with wider lanes — same bits on every path.
#if defined(__GNUC__) && defined(__x86_64__) && defined(__ELF__)
#define ST_KERNEL_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ST_KERNEL_CLONES
#endif

namespace slicetuner {

namespace {

// --------------------------------------------------------------------------
// Blocked GEMM geometry. The main kernel advances 2 output rows x 4 depth
// steps per pass of a wide, vectorizable column loop (four contributions
// land per C load/store pair while staying inside the 16-register budget);
// the transposed kernels use a kIT x kJT register tile of independent
// accumulators. kKC / kNC tile the depth and column dimensions so the
// panels a row-block sweep touches stay cache-resident. kRowBlock is the
// unit of intra-op parallelism — the partition is a pure function of the
// output shape, never of the lane count, so any thread count produces the
// same blocks and therefore the same bits.
// --------------------------------------------------------------------------
constexpr size_t kIT = 4;
constexpr size_t kJT = 4;
constexpr size_t kKC = 256;
constexpr size_t kNC = 512;
constexpr size_t kRowBlock = 64;
// Threading engages at >= this many multiply-adds (~a 128^3 GEMM); below it
// the submit/wake cost outweighs the win.
constexpr double kParallelMinMuls = 1.0e6;

std::atomic<int> g_tensor_op_threads{0};

// Runs fn(i0, i1) over row blocks of [0, m). Serial when the work is small,
// the caller opted out, or this thread is already inside an engine-level
// ParallelFor lane (nested fan-out would only churn the shared pool's queue).
// A template on the functor: the serial branch calls fn directly, so the
// small GEMMs of a training step never build (and heap-allocate) a
// std::function; only the parallel branch type-erases it for ParallelFor.
template <typename Fn>
void RunRowBlocks(size_t m, double mul_count, const Fn& fn) {
  const size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  if (blocks <= 1 || mul_count < kParallelMinMuls) {
    fn(0, m);
    return;
  }
  const int threads = GetTensorOpThreads();
  if (threads == 1 || ParallelForDepth() != 0) {
    fn(0, m);
    return;
  }
  ParallelOptions options;
  options.num_threads = threads;
  ParallelFor(
      blocks,
      [&](size_t block) {
        const size_t i0 = block * kRowBlock;
        fn(i0, std::min(m, i0 + kRowBlock));
      },
      options);
}

// Rows [i0, i1) of out = a * b (+ bias) for a narrow output, N = b.cols()
// <= 4 (the logits head). Each output element lives in a register
// accumulator: it starts at 0, adds k in ascending order and adds the bias
// last — the same per-element order as the wide kernel below and the naive
// kernel, so the bits match. Two rows advance together so their
// independent accumulation chains overlap.
template <size_t N>
inline void GemmNarrowRows(const Matrix& a, const Matrix& b,
                           const Matrix* bias, Matrix* out, size_t i0,
                           size_t i1) {
  const size_t depth = a.cols();
  size_t i = i0;
  for (; i + 2 <= i1; i += 2) {
    const double* a0 = a.row(i);
    const double* a1 = a.row(i + 1);
    double acc0[N] = {};
    double acc1[N] = {};
    for (size_t kk = 0; kk < depth; ++kk) {
      const double* brow = b.row(kk);
      const double av0 = a0[kk];
      const double av1 = a1[kk];
      for (size_t j = 0; j < N; ++j) {
        acc0[j] += av0 * brow[j];
        acc1[j] += av1 * brow[j];
      }
    }
    double* c0 = out->row(i);
    double* c1 = out->row(i + 1);
    for (size_t j = 0; j < N; ++j) {
      c0[j] = bias != nullptr ? acc0[j] + bias->data()[j] : acc0[j];
      c1[j] = bias != nullptr ? acc1[j] + bias->data()[j] : acc1[j];
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a.row(i);
    double acc[N] = {};
    for (size_t kk = 0; kk < depth; ++kk) {
      const double* brow = b.row(kk);
      const double av = arow[kk];
      for (size_t j = 0; j < N; ++j) acc[j] += av * brow[j];
    }
    double* crow = out->row(i);
    for (size_t j = 0; j < N; ++j) {
      crow[j] = bias != nullptr ? acc[j] + bias->data()[j] : acc[j];
    }
  }
}

// Rows [i0, i1) of out = a * b (+ optional bias epilogue). Per output
// element the accumulation order is k strictly ascending with one
// accumulator chain — the same order as the naive kernel — regardless of
// how the jc/kc tiles fall. Outputs at most 4 wide take the register-
// accumulator kernel above instead of the wide j loop.
ST_KERNEL_CLONES
void GemmRowBlock(const Matrix& a, const Matrix& b, const Matrix* bias,
                  Matrix* out, size_t i0, size_t i1) {
  const size_t depth = a.cols();
  const size_t n = b.cols();
  switch (n) {
    case 1:
      return GemmNarrowRows<1>(a, b, bias, out, i0, i1);
    case 2:
      return GemmNarrowRows<2>(a, b, bias, out, i0, i1);
    case 3:
      return GemmNarrowRows<3>(a, b, bias, out, i0, i1);
    case 4:
      return GemmNarrowRows<4>(a, b, bias, out, i0, i1);
    default:
      break;
  }
  for (size_t i = i0; i < i1; ++i) {
    double* row = out->row(i);
    std::fill(row, row + n, 0.0);
  }
  for (size_t jc = 0; jc < n; jc += kNC) {
    const size_t jend = std::min(n, jc + kNC);
    for (size_t kc = 0; kc < depth; kc += kKC) {
      const size_t kend = std::min(depth, kc + kKC);
      size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        // Two output rows x four depth steps advance together in the wide,
        // vectorizable j loop: each B row segment is reused across both
        // rows, and four depth contributions land per C load/store pair.
        // The parenthesization keeps every element's accumulation strictly
        // sequential in ascending kk — no reassociation, so the bits match
        // the one-step naive order exactly.
        const double* a0 = a.row(i);
        const double* a1 = a.row(i + 1);
        double* c0 = out->row(i);
        double* c1 = out->row(i + 1);
        size_t kk = kc;
        for (; kk + 4 <= kend; kk += 4) {
          const double* br0 = b.row(kk);
          const double* br1 = b.row(kk + 1);
          const double* br2 = b.row(kk + 2);
          const double* br3 = b.row(kk + 3);
          const double av00 = a0[kk], av01 = a0[kk + 1];
          const double av02 = a0[kk + 2], av03 = a0[kk + 3];
          const double av10 = a1[kk], av11 = a1[kk + 1];
          const double av12 = a1[kk + 2], av13 = a1[kk + 3];
          for (size_t j = jc; j < jend; ++j) {
            const double bv0 = br0[j];
            const double bv1 = br1[j];
            const double bv2 = br2[j];
            const double bv3 = br3[j];
            c0[j] = (((c0[j] + av00 * bv0) + av01 * bv1) + av02 * bv2) +
                    av03 * bv3;
            c1[j] = (((c1[j] + av10 * bv0) + av11 * bv1) + av12 * bv2) +
                    av13 * bv3;
          }
        }
        for (; kk < kend; ++kk) {
          const double* brow = b.row(kk);
          const double av0 = a0[kk];
          const double av1 = a1[kk];
          for (size_t j = jc; j < jend; ++j) {
            const double bv = brow[j];
            c0[j] += av0 * bv;
            c1[j] += av1 * bv;
          }
        }
      }
      for (; i < i1; ++i) {
        const double* arow = a.row(i);
        double* crow = out->row(i);
        for (size_t kk = kc; kk < kend; ++kk) {
          const double av = arow[kk];
          const double* brow = b.row(kk);
          for (size_t j = jc; j < jend; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
  if (bias != nullptr) {
    const double* bv = bias->data();
    for (size_t i = i0; i < i1; ++i) {
      double* row = out->row(i);
      for (size_t j = 0; j < n; ++j) row[j] += bv[j];
    }
  }
}

void GemmDispatch(const Matrix& a, const Matrix& b, const Matrix* bias,
                  Matrix* out) {
  const size_t m = a.rows();
  const size_t n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  const double muls = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(a.cols());
  RunRowBlocks(m, muls, [&](size_t i0, size_t i1) {
    GemmRowBlock(a, b, bias, out, i0, i1);
  });
}

// Rows [i0, i1) of out = a * b^T. Dot-product form: accumulators start at
// zero and sum k ascending, matching the naive kernel exactly.
ST_KERNEL_CLONES
void GemmTBRowBlock(const Matrix& a, const Matrix& b, Matrix* out, size_t i0,
                    size_t i1) {
  const size_t depth = a.cols();
  const size_t n = b.rows();
  size_t i = i0;
  for (; i + kIT <= i1; i += kIT) {
    const double* a0 = a.row(i);
    const double* a1 = a.row(i + 1);
    const double* a2 = a.row(i + 2);
    const double* a3 = a.row(i + 3);
    size_t j = 0;
    for (; j + kJT <= n; j += kJT) {
      const double* b0 = b.row(j);
      const double* b1 = b.row(j + 1);
      const double* b2 = b.row(j + 2);
      const double* b3 = b.row(j + 3);
      double acc0[kJT] = {0.0, 0.0, 0.0, 0.0};
      double acc1[kJT] = {0.0, 0.0, 0.0, 0.0};
      double acc2[kJT] = {0.0, 0.0, 0.0, 0.0};
      double acc3[kJT] = {0.0, 0.0, 0.0, 0.0};
      for (size_t kk = 0; kk < depth; ++kk) {
        const double bv0 = b0[kk];
        const double bv1 = b1[kk];
        const double bv2 = b2[kk];
        const double bv3 = b3[kk];
        const double av0 = a0[kk];
        const double av1 = a1[kk];
        const double av2 = a2[kk];
        const double av3 = a3[kk];
        acc0[0] += av0 * bv0;
        acc0[1] += av0 * bv1;
        acc0[2] += av0 * bv2;
        acc0[3] += av0 * bv3;
        acc1[0] += av1 * bv0;
        acc1[1] += av1 * bv1;
        acc1[2] += av1 * bv2;
        acc1[3] += av1 * bv3;
        acc2[0] += av2 * bv0;
        acc2[1] += av2 * bv1;
        acc2[2] += av2 * bv2;
        acc2[3] += av2 * bv3;
        acc3[0] += av3 * bv0;
        acc3[1] += av3 * bv1;
        acc3[2] += av3 * bv2;
        acc3[3] += av3 * bv3;
      }
      double* c0 = out->row(i) + j;
      double* c1 = out->row(i + 1) + j;
      double* c2 = out->row(i + 2) + j;
      double* c3 = out->row(i + 3) + j;
      for (size_t t = 0; t < kJT; ++t) {
        c0[t] = acc0[t];
        c1[t] = acc1[t];
        c2[t] = acc2[t];
        c3[t] = acc3[t];
      }
    }
    for (; j < n; ++j) {
      const double* brow = b.row(j);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t kk = 0; kk < depth; ++kk) {
        const double bv = brow[kk];
        s0 += a0[kk] * bv;
        s1 += a1[kk] * bv;
        s2 += a2[kk] * bv;
        s3 += a3[kk] * bv;
      }
      (*out)(i, j) = s0;
      (*out)(i + 1, j) = s1;
      (*out)(i + 2, j) = s2;
      (*out)(i + 3, j) = s3;
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a.row(i);
    double* orow = out->row(i);
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b.row(j);
      double acc = 0.0;
      for (size_t kk = 0; kk < depth; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = acc;
    }
  }
}

// Rows [i0, i1) of out = a^T * b for a narrow output, N = b.cols() <= 4
// (the logits head's weight gradient). A kIT x N tile of register
// accumulators, each starting at 0 and adding kk in ascending order — the
// per-element order of the blocked and naive kernels.
template <size_t N>
inline void GemmTANarrowRows(const Matrix& a, const Matrix& b, Matrix* out,
                             size_t i0, size_t i1) {
  const size_t depth = a.rows();
  size_t i = i0;
  for (; i + kIT <= i1; i += kIT) {
    double acc[kIT][N] = {};
    for (size_t kk = 0; kk < depth; ++kk) {
      const double* arow = a.row(kk) + i;
      const double* brow = b.row(kk);
      for (size_t r = 0; r < kIT; ++r) {
        for (size_t j = 0; j < N; ++j) acc[r][j] += arow[r] * brow[j];
      }
    }
    for (size_t r = 0; r < kIT; ++r) {
      double* crow = out->row(i + r);
      for (size_t j = 0; j < N; ++j) crow[j] = acc[r][j];
    }
  }
  for (; i < i1; ++i) {
    double acc[N] = {};
    for (size_t kk = 0; kk < depth; ++kk) {
      const double av = a.row(kk)[i];
      const double* brow = b.row(kk);
      for (size_t j = 0; j < N; ++j) acc[j] += av * brow[j];
    }
    double* crow = out->row(i);
    for (size_t j = 0; j < N; ++j) crow[j] = acc[j];
  }
}

// Rows [i0, i1) of out = a^T * b (a: K x m, b: K x n, out: m x n). The
// reduction runs over the K rows of a and b; per output element it is kk
// strictly ascending, matching the naive rank-1-update kernel.
ST_KERNEL_CLONES
void GemmTARowBlock(const Matrix& a, const Matrix& b, Matrix* out, size_t i0,
                    size_t i1) {
  const size_t depth = a.rows();
  const size_t n = b.cols();
  switch (n) {
    case 1:
      return GemmTANarrowRows<1>(a, b, out, i0, i1);
    case 2:
      return GemmTANarrowRows<2>(a, b, out, i0, i1);
    case 3:
      return GemmTANarrowRows<3>(a, b, out, i0, i1);
    case 4:
      return GemmTANarrowRows<4>(a, b, out, i0, i1);
    default:
      break;
  }
  for (size_t i = i0; i < i1; ++i) {
    double* row = out->row(i);
    std::fill(row, row + n, 0.0);
  }
  for (size_t kc = 0; kc < depth; kc += kKC) {
    const size_t kend = std::min(depth, kc + kKC);
    size_t i = i0;
    for (; i + kIT <= i1; i += kIT) {
      size_t j = 0;
      for (; j + kJT <= n; j += kJT) {
        double acc0[kJT], acc1[kJT], acc2[kJT], acc3[kJT];
        double* c0 = out->row(i) + j;
        double* c1 = out->row(i + 1) + j;
        double* c2 = out->row(i + 2) + j;
        double* c3 = out->row(i + 3) + j;
        for (size_t t = 0; t < kJT; ++t) {
          acc0[t] = c0[t];
          acc1[t] = c1[t];
          acc2[t] = c2[t];
          acc3[t] = c3[t];
        }
        for (size_t kk = kc; kk < kend; ++kk) {
          const double* arow = a.row(kk) + i;
          const double* brow = b.row(kk) + j;
          const double av0 = arow[0];
          const double av1 = arow[1];
          const double av2 = arow[2];
          const double av3 = arow[3];
          for (size_t t = 0; t < kJT; ++t) {
            const double bv = brow[t];
            acc0[t] += av0 * bv;
            acc1[t] += av1 * bv;
            acc2[t] += av2 * bv;
            acc3[t] += av3 * bv;
          }
        }
        for (size_t t = 0; t < kJT; ++t) {
          c0[t] = acc0[t];
          c1[t] = acc1[t];
          c2[t] = acc2[t];
          c3[t] = acc3[t];
        }
      }
      for (; j < n; ++j) {
        double s0 = (*out)(i, j);
        double s1 = (*out)(i + 1, j);
        double s2 = (*out)(i + 2, j);
        double s3 = (*out)(i + 3, j);
        for (size_t kk = kc; kk < kend; ++kk) {
          const double* arow = a.row(kk) + i;
          const double bv = b.row(kk)[j];
          s0 += arow[0] * bv;
          s1 += arow[1] * bv;
          s2 += arow[2] * bv;
          s3 += arow[3] * bv;
        }
        (*out)(i, j) = s0;
        (*out)(i + 1, j) = s1;
        (*out)(i + 2, j) = s2;
        (*out)(i + 3, j) = s3;
      }
    }
    for (; i < i1; ++i) {
      double* crow = out->row(i);
      for (size_t kk = kc; kk < kend; ++kk) {
        const double av = a.row(kk)[i];
        const double* brow = b.row(kk);
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

}  // namespace

void SetTensorOpThreads(int num_threads) {
  g_tensor_op_threads.store(num_threads, std::memory_order_relaxed);
}

int GetTensorOpThreads() {
  return g_tensor_op_threads.load(std::memory_order_relaxed);
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  GemmDispatch(a, b, /*bias=*/nullptr, out);
}

void MatMulBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  GemmDispatch(a, b, &bias, out);
}

void MatMulTransposedB(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows();
  const size_t n = b.rows();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  const double muls = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(a.cols());
  RunRowBlocks(m, muls, [&](size_t i0, size_t i1) {
    GemmTBRowBlock(a, b, out, i0, i1);
  });
}

void MatMulTransposedA(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.cols();
  const size_t n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  const double muls = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(a.rows());
  RunRowBlocks(m, muls, [&](size_t i0, size_t i1) {
    GemmTARowBlock(a, b, out, i0, i1);
  });
}

void MatMulNaive(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  out->Zero();
  // i-k-j loop order: streams through b and out rows sequentially.
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    double* orow = out->row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      const double* brow = b.row(kk);
      for (size_t j = 0; j < n; ++j) {
        orow[j] += av * brow[j];
      }
    }
  }
}

void MatMulTransposedBNaive(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    double* orow = out->row(i);
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b.row(j);
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = acc;
    }
  }
}

void MatMulTransposedANaive(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t k = a.rows();
  const size_t m = a.cols();
  const size_t n = b.cols();
  if (out->rows() != m || out->cols() != n) *out = Matrix(m, n);
  out->Zero();
  for (size_t kk = 0; kk < k; ++kk) {
    const double* arow = a.row(kk);
    const double* brow = b.row(kk);
    for (size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->row(i);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void AddRowBroadcast(Matrix* m, const Matrix& bias) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    const double* b = bias.data();
    for (size_t c = 0; c < m->cols(); ++c) row[c] += b[c];
  }
}

void ColumnSum(const Matrix& m, Matrix* out) {
  if (out->rows() != 1 || out->cols() != m.cols()) *out = Matrix(1, m.cols());
  out->Zero();
  double* o = out->data();
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) o[c] += row[c];
  }
}

void SoftmaxRows(Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    double mx = row[0];
    for (size_t c = 1; c < m->cols(); ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (size_t c = 0; c < m->cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const double inv = 1.0 / sum;
    for (size_t c = 0; c < m->cols(); ++c) row[c] *= inv;
  }
}

void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) {
  if (!out->SameShape(a)) *out = Matrix(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out->data();
  for (size_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
}

Matrix Add(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out += b;
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  out -= b;
  return out;
}

Matrix Scale(const Matrix& a, double scalar) {
  Matrix out = a;
  out *= scalar;
  return out;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  double mx = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

}  // namespace slicetuner
