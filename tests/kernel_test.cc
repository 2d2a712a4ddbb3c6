// Kernel-layer correctness: the fused ops (SigmoidBce, EmbeddingConcat,
// Mean, WeightedSum, SquaredNorm) against their unfused reference
// composites (ops::reference), the vectorized elementwise family against
// libm, and the SIMD GEMM against a double-precision reference — on
// randomized shapes chosen to stress the 8-lane SIMD tails (widths that are
// not multiples of the vector width, single columns, single elements).
//
// Contract being verified (DESIGN.md §14):
//  - fused reductions are BIT-identical to their composites, values and
//    gradients, at any thread count;
//  - EmbeddingConcat is bit-identical to per-field lookup+concat (both are
//    pure copies);
//  - SigmoidBce matches BceLoss(Sigmoid(z), y) within float tolerance where
//    the composite's probability clamp does not engage, and stays finite at
//    logits where the composite saturates;
//  - every fused op passes finite-difference gradcheck at 1 and 4 threads
//    with the partition grain forced down so the 4-thread run really shards;
//  - the register-tiled backward GEMMs and the bias column sums are
//    BIT-identical to the plain loops they replaced (kept below as oracles).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "support/reference_ops.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace dcmt {
namespace {

using core::SetGrainCapForTesting;
using core::ThreadPool;

// Ragged shapes stressing the SIMD tail handling: below one vector, exactly
// one vector, vector+tail, many vectors+tail, and degenerate single-element.
struct Shape {
  int rows;
  int cols;
};
const Shape kShapes[] = {{1, 1}, {3, 5}, {4, 8}, {7, 9},
                         {2, 17}, {5, 31}, {16, 8}, {13, 40}};

class KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetGrainCapForTesting(0);
    ThreadPool::Global().SetNumThreads(1);
  }

  static void UseThreads(int n, bool force_sharding) {
    ThreadPool::Global().SetNumThreads(n);
    SetGrainCapForTesting(force_sharding ? 1 : 0);
  }
};

void ExpectBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

void ExpectGradBitIdentical(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.has_grad());
  ASSERT_TRUE(b.has_grad());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.grad()[i], b.grad()[i]) << "grad element " << i;
  }
}

// --- Fused reductions: bit-identical to composites ---------------------------

TEST_F(KernelTest, FusedReductionsBitIdenticalToComposites) {
  Rng rng(11);
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    for (const Shape& s : kShapes) {
      const Tensor base = Tensor::Uniform(s.rows, s.cols, -2.0f, 2.0f, &rng);
      const Tensor wbase = Tensor::Uniform(s.rows, s.cols, -1.0f, 1.0f, &rng);
      const std::vector<float> av(base.data(), base.data() + base.size());
      const std::vector<float> wv(wbase.data(), wbase.data() + wbase.size());

      // Fresh leaves per graph so backward tapes stay independent.
      auto leaf = [&](const std::vector<float>& v) {
        return Tensor::FromData(s.rows, s.cols, v, /*requires_grad=*/true);
      };

      {
        Tensor a1 = leaf(av), a2 = leaf(av);
        Tensor fused = ops::Mean(a1);
        Tensor composite = ops::reference::Mean(a2);
        ExpectBitIdentical(fused, composite);
        fused.Backward();
        composite.Backward();
        ExpectGradBitIdentical(a1, a2);
      }
      {
        Tensor a1 = leaf(av), a2 = leaf(av);
        Tensor w1 = leaf(wv), w2 = leaf(wv);
        Tensor fused = ops::WeightedSum(a1, w1);
        Tensor composite = ops::reference::WeightedSum(a2, w2);
        ExpectBitIdentical(fused, composite);
        fused.Backward();
        composite.Backward();
        ExpectGradBitIdentical(a1, a2);
        ExpectGradBitIdentical(w1, w2);
      }
      {
        Tensor a1 = leaf(av), a2 = leaf(av);
        Tensor fused = ops::SquaredNorm(a1);
        Tensor composite = ops::reference::SquaredNorm(a2);
        ExpectBitIdentical(fused, composite);
        fused.Backward();
        composite.Backward();
        ExpectGradBitIdentical(a1, a2);
      }
    }
  }
}

// --- EmbeddingConcat: bit-identical to lookup+concat -------------------------

TEST_F(KernelTest, EmbeddingConcatMatchesCompositeExactly) {
  Rng rng(12);
  // Ragged field widths (3, 5, 8) so the concatenated row crosses vector
  // boundaries at odd offsets.
  const std::vector<int> vocab = {7, 11, 13};
  const std::vector<int> dims = {3, 5, 8};
  const int batch = 17;

  std::vector<std::vector<float>> table_data;
  for (std::size_t f = 0; f < vocab.size(); ++f) {
    Tensor t = Tensor::Uniform(vocab[f], dims[f], -1.0f, 1.0f, &rng);
    table_data.emplace_back(t.data(), t.data() + t.size());
  }
  std::vector<std::vector<int>> ids(vocab.size());
  for (std::size_t f = 0; f < vocab.size(); ++f) {
    for (int i = 0; i < batch; ++i) {
      // Deterministic id pattern with repeats (scatter-add collisions).
      ids[f].push_back((i * 3 + static_cast<int>(f)) % vocab[f]);
    }
  }

  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    std::vector<Tensor> t1, t2;
    for (std::size_t f = 0; f < vocab.size(); ++f) {
      t1.push_back(Tensor::FromData(vocab[f], dims[f], table_data[f],
                                    /*requires_grad=*/true));
      t2.push_back(Tensor::FromData(vocab[f], dims[f], table_data[f],
                                    /*requires_grad=*/true));
    }
    Tensor fused = ops::EmbeddingConcat(t1, ids);
    Tensor composite = ops::reference::EmbeddingConcat(t2, ids);
    ExpectBitIdentical(fused, composite);

    // Weighted backward so per-row gradients differ (catches transposed or
    // misaligned scatters that a Sum backward of all-ones would mask).
    std::vector<float> wv;
    for (int i = 0; i < batch; ++i) {
      wv.push_back(0.25f * static_cast<float>(i + 1));
    }
    const Tensor w = Tensor::ColumnVector(wv);
    ops::Sum(ops::Mul(fused, w)).Backward();
    ops::Sum(ops::Mul(composite, w)).Backward();
    for (std::size_t f = 0; f < vocab.size(); ++f) {
      ExpectGradBitIdentical(t1[f], t2[f]);
    }
  }
}

// --- SigmoidBce vs composite -------------------------------------------------

TEST_F(KernelTest, SigmoidBceMatchesCompositeWithinTolerance) {
  Rng rng(13);
  for (const Shape& s : kShapes) {
    // |z| <= 8 keeps sigmoid(z) far from the composite's 1e-7 clamp, so the
    // two formulations differ only by float rounding.
    const Tensor z = Tensor::Uniform(s.rows, s.cols, -8.0f, 8.0f, &rng);
    const Tensor y = Tensor::Uniform(s.rows, s.cols, 0.0f, 1.0f, &rng);
    const Tensor fused = ops::SigmoidBce(z, y);
    const Tensor composite = ops::reference::SigmoidBce(z, y);
    for (std::int64_t i = 0; i < fused.size(); ++i) {
      const float a = fused.data()[i];
      const float b = composite.data()[i];
      EXPECT_NEAR(a, b, 1e-4f * (1.0f + std::fabs(b))) << "element " << i;
    }
  }
}

TEST_F(KernelTest, SigmoidBceStaysFiniteAndLinearAtExtremeLogits) {
  // Where the composite clamps (|z| >> 16), the fused logit form is exact:
  // loss -> |z| for the mislabeled side, -> 0 for the correct side.
  const Tensor z = Tensor::FromData(1, 4, {50.0f, -50.0f, 200.0f, -200.0f});
  const Tensor y = Tensor::FromData(1, 4, {0.0f, 1.0f, 1.0f, 0.0f});
  const Tensor loss = ops::SigmoidBce(z, y);
  EXPECT_NEAR(loss.at(0, 0), 50.0f, 1e-4f);
  EXPECT_NEAR(loss.at(0, 1), 50.0f, 1e-4f);
  EXPECT_NEAR(loss.at(0, 2), 0.0f, 1e-6f);
  EXPECT_NEAR(loss.at(0, 3), 0.0f, 1e-6f);
}

TEST_F(KernelTest, SigmoidBceBackwardIsSigmoidMinusTarget) {
  Rng rng(14);
  Tensor z = Tensor::Uniform(5, 7, -4.0f, 4.0f, &rng);
  Tensor zg = Tensor::FromData(
      5, 7, std::vector<float>(z.data(), z.data() + z.size()),
      /*requires_grad=*/true);
  const Tensor y = Tensor::Uniform(5, 7, 0.0f, 1.0f, &rng);
  ops::Sum(ops::SigmoidBce(zg, y)).Backward();
  for (std::int64_t i = 0; i < zg.size(); ++i) {
    const double p = 1.0 / (1.0 + std::exp(-static_cast<double>(z.data()[i])));
    const double expected = p - static_cast<double>(y.data()[i]);
    EXPECT_NEAR(zg.grad()[i], expected, 1e-5) << "element " << i;
  }
}

// --- Vectorized elementwise family vs libm -----------------------------------

TEST_F(KernelTest, VectorizedTranscendentalsMatchLibm) {
  Rng rng(15);
  for (const Shape& s : kShapes) {
    const Tensor x = Tensor::Uniform(s.rows, s.cols, -6.0f, 6.0f, &rng);
    const Tensor pos = Tensor::Uniform(s.rows, s.cols, 0.01f, 10.0f, &rng);
    const Tensor sig = ops::Sigmoid(x);
    const Tensor tanh_t = ops::Tanh(x);
    const Tensor exp_t = ops::Exp(x);
    const Tensor log_t = ops::Log(pos);
    const Tensor sp = ops::Softplus(x);
    for (std::int64_t i = 0; i < x.size(); ++i) {
      const double xd = x.data()[i];
      const double pd = pos.data()[i];
      EXPECT_NEAR(sig.data()[i], 1.0 / (1.0 + std::exp(-xd)), 2e-7);
      EXPECT_NEAR(tanh_t.data()[i], std::tanh(xd), 2e-7);
      EXPECT_NEAR(exp_t.data()[i], std::exp(xd),
                  2e-6 * std::max(1.0, std::exp(xd)));
      EXPECT_NEAR(log_t.data()[i], std::log(pd), 2e-6);
      EXPECT_NEAR(sp.data()[i],
                  std::max(xd, 0.0) + std::log1p(std::exp(-std::fabs(xd))),
                  2e-6);
    }
  }
}

TEST_F(KernelTest, TranscendentalIdentitiesAreExact) {
  const Tensor zero = Tensor::Zeros(2, 3);
  const Tensor one = Tensor::Full(2, 3, 1.0f);
  const Tensor exp0 = ops::Exp(zero);
  const Tensor log1 = ops::Log(one);
  const Tensor sig0 = ops::Sigmoid(zero);
  for (std::int64_t i = 0; i < exp0.size(); ++i) {
    EXPECT_EQ(exp0.data()[i], 1.0f);
    EXPECT_EQ(log1.data()[i], 0.0f);
    EXPECT_EQ(sig0.data()[i], 0.5f);
  }
}

// --- GEMM vs double-precision reference --------------------------------------

TEST_F(KernelTest, MatMulMatchesDoubleReferenceOnRaggedSizes) {
  Rng rng(16);
  const int dims[][3] = {{1, 1, 1},  {3, 7, 5},   {6, 16, 16}, {7, 13, 9},
                         {12, 5, 1}, {17, 23, 31}, {16, 8, 24}};
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    for (const auto& d : dims) {
      const int m = d[0], k = d[1], n = d[2];
      const Tensor a = Tensor::Uniform(m, k, -1.0f, 1.0f, &rng);
      const Tensor b = Tensor::Uniform(k, n, -1.0f, 1.0f, &rng);
      const Tensor c = ops::MatMul(a, b);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          double acc = 0.0;
          for (int p = 0; p < k; ++p) {
            acc += static_cast<double>(a.at(i, p)) *
                   static_cast<double>(b.at(p, j));
          }
          EXPECT_NEAR(c.at(i, j), acc, 1e-5) << "(" << i << "," << j << ")";
        }
      }
    }
  }
}

// --- Backward GEMMs + bias: bit-identical to the loops they replaced ---------

// The row-vector backward loops and the scalar bias-broadcast loop that the
// register-tiled kernels replaced, kept verbatim as oracles. Their
// per-element floating-point sequence is the contract the kernels must keep
// (kernels.h): every golden, parity and checkpoint test depends on it.
namespace oracle {

typedef float Vf __attribute__((vector_size(32)));
constexpr int kW = 8;

Vf LoadV(const float* p) {
  Vf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreV(float* p, Vf v) { std::memcpy(p, &v, sizeof(v)); }

Vf LoadPartial(const float* p, int n) {
  float tmp[kW] = {0.0f};
  std::memcpy(tmp, p, sizeof(float) * static_cast<std::size_t>(n));
  Vf v;
  std::memcpy(&v, tmp, sizeof(v));
  return v;
}

void StorePartial(float* p, Vf v, int n) {
  float tmp[kW];
  std::memcpy(tmp, &v, sizeof(v));
  std::memcpy(p, tmp, sizeof(float) * static_cast<std::size_t>(n));
}

Vf Splat(float x) { return Vf{} + x; }

float HSum(Vf v) {
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

// dA += dC * B^T, one horizontal dot product per element.
void GemmGradARows(const float* dc, const float* b, float* da, int k, int n,
                   std::int64_t i0, std::int64_t i1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* grow = dc + i * n;
    float* arow = da + i * k;
    for (int p = 0; p < k; ++p) {
      const float* brow = b + static_cast<std::size_t>(p) * n;
      Vf acc = Vf{};
      int j = 0;
      for (; j + kW <= n; j += kW) {
        acc += LoadV(grow + j) * LoadV(brow + j);
      }
      if (j < n) {
        acc += LoadPartial(grow + j, n - j) * LoadPartial(brow + j, n - j);
      }
      arow[p] += HSum(acc);
    }
  }
}

// dB += A^T * dC, one in-memory row update per sample.
void GemmGradBRows(const float* a, const float* dc, float* db, int m, int k,
                   int n, std::int64_t p0, std::int64_t p1) {
  for (std::int64_t p = p0; p < p1; ++p) {
    float* brow = db + p * n;
    for (int i = 0; i < m; ++i) {
      const Vf av = Splat(a[static_cast<std::size_t>(i) * k + p]);
      const float* grow = dc + static_cast<std::size_t>(i) * n;
      int j = 0;
      for (; j + kW <= n; j += kW) {
        StoreV(brow + j, LoadV(brow + j) + av * LoadV(grow + j));
      }
      if (j < n) {
        const int r = n - j;
        StorePartial(brow + j,
                     LoadPartial(brow + j, r) + av * LoadPartial(grow + j, r),
                     r);
      }
    }
  }
}

// Row-broadcast add backward: ag[i] += g * 1, bg[c] += g * 1, rows ascending.
void AddRowBroadcastBackward(const float* g, float* ag, float* bg, int m,
                             int n) {
  const auto one = [] { return 1.0f; };
  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < n; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * n + c;
      ag[i] += g[i] * one();
      bg[c] += g[i] * one();
    }
  }
}

}  // namespace oracle

/// Values in [-1, 1) with exact zeros (+0 and -0) and tiny magnitudes whose
/// products underflow, so signed-zero and subnormal edges are exercised.
std::vector<float> EdgyValues(std::int64_t count, Rng* rng) {
  const Tensor t =
      Tensor::Uniform(1, static_cast<int>(count), -1.0f, 1.0f, rng);
  std::vector<float> v(t.data(), t.data() + t.size());
  for (std::int64_t i = 0; i < count; ++i) {
    if (i % 5 == 1) v[i] = 0.0f;
    if (i % 7 == 3) v[i] = -0.0f;
    if (i % 11 == 4) v[i] *= 1e-30f;
  }
  return v;
}

void ExpectSameBytes(const float* got, const std::vector<float>& want,
                     const char* what, int m, int k, int n, int threads) {
  const std::size_t bytes = want.size() * sizeof(float);
  if (std::memcmp(got, want.data(), bytes) == 0) return;
  std::size_t i = 0;
  while (std::memcmp(got + i, want.data() + i, sizeof(float)) == 0) ++i;
  ADD_FAILURE() << what << " differs at element " << i << " (got " << got[i]
                << ", want " << want[i] << ") for m=" << m << " k=" << k
                << " n=" << n << " at " << threads << " threads";
}

TEST_F(KernelTest, GemmBackwardBitIdenticalToReferenceLoops) {
  const int ms[] = {1, 5, 7, 1027};
  const int ks[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 112};
  const int ns[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 20, 24, 64, 65};
  Rng rng(18);
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/true);
    for (int m : ms) {
      for (int k : ks) {
        for (int n : ns) {
          const std::int64_t mk = static_cast<std::int64_t>(m) * k;
          const std::int64_t kn = static_cast<std::int64_t>(k) * n;
          const std::int64_t mn = static_cast<std::int64_t>(m) * n;
          Tensor a = Tensor::FromData(m, k, EdgyValues(mk, &rng), true);
          Tensor w = Tensor::FromData(k, n, EdgyValues(kn, &rng), true);
          Tensor bias = Tensor::FromData(1, n, EdgyValues(n, &rng), true);
          const Tensor dout_w = Tensor::FromData(m, n, EdgyValues(mn, &rng));

          // Nonzero and -0.0 prior gradients: the kernels accumulate.
          const std::vector<float> seed_a = EdgyValues(mk, &rng);
          const std::vector<float> seed_w = EdgyValues(kn, &rng);
          const std::vector<float> seed_b = EdgyValues(n, &rng);
          std::memcpy(a.grad(), seed_a.data(), seed_a.size() * sizeof(float));
          std::memcpy(w.grad(), seed_w.data(), seed_w.size() * sizeof(float));
          std::memcpy(bias.grad(), seed_b.data(),
                      seed_b.size() * sizeof(float));

          Tensor mm = ops::MatMul(a, w);
          Tensor out = ops::Add(mm, bias);
          // Seeding the intermediates too puts -0.0 into dC (-0 + -0).
          const std::vector<float> seed_out = EdgyValues(mn, &rng);
          const std::vector<float> seed_mm = EdgyValues(mn, &rng);
          std::memcpy(out.grad(), seed_out.data(),
                      seed_out.size() * sizeof(float));
          std::memcpy(mm.grad(), seed_mm.data(), seed_mm.size() * sizeof(float));
          ops::WeightedSum(out, dout_w).Backward();

          // Replay the same upstream gradients through the oracles.
          const float* dout = out.grad();
          std::vector<float> want_mm = seed_mm;
          std::vector<float> want_b = seed_b;
          oracle::AddRowBroadcastBackward(dout, want_mm.data(), want_b.data(),
                                          m, n);
          ExpectSameBytes(mm.grad(), want_mm, "add dA", m, k, n, threads);
          ExpectSameBytes(bias.grad(), want_b, "bias grad", m, k, n, threads);

          std::vector<float> want_a = seed_a;
          std::vector<float> want_w = seed_w;
          oracle::GemmGradARows(want_mm.data(), w.data(), want_a.data(), k, n,
                                0, m);
          oracle::GemmGradBRows(a.data(), want_mm.data(), want_w.data(), m, k,
                                n, 0, k);
          ExpectSameBytes(a.grad(), want_a, "matmul dA", m, k, n, threads);
          ExpectSameBytes(w.grad(), want_w, "matmul dB", m, k, n, threads);
        }
      }
    }
  }
}

// --- Gradcheck for every fused op at 1 and 4 threads -------------------------

TEST_F(KernelTest, FusedOpsPassGradcheckAtOneAndFourThreads) {
  for (int threads : {1, 4}) {
    UseThreads(threads, /*force_sharding=*/threads > 1);
    Rng rng(17);

    {
      Tensor a = Tensor::Uniform(3, 7, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const GradCheckResult r =
          CheckGradients([&] { return ops::Mean(a); }, {a});
      EXPECT_TRUE(r.ok) << threads << " threads, Mean: " << r.worst;
    }
    {
      Tensor a = Tensor::Uniform(4, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      Tensor w = Tensor::Uniform(4, 5, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const GradCheckResult r =
          CheckGradients([&] { return ops::WeightedSum(a, w); }, {a, w});
      EXPECT_TRUE(r.ok) << threads << " threads, WeightedSum: " << r.worst;
    }
    {
      Tensor a = Tensor::Uniform(3, 9, -1.0f, 1.0f, &rng, /*requires_grad=*/true);
      const GradCheckResult r =
          CheckGradients([&] { return ops::SquaredNorm(a); }, {a});
      EXPECT_TRUE(r.ok) << threads << " threads, SquaredNorm: " << r.worst;
    }
    {
      Tensor z = Tensor::Uniform(5, 3, -3.0f, 3.0f, &rng, /*requires_grad=*/true);
      Tensor y = Tensor::Uniform(5, 3, 0.1f, 0.9f, &rng, /*requires_grad=*/true);
      const GradCheckResult r = CheckGradients(
          [&] { return ops::Mean(ops::SigmoidBce(z, y)); }, {z, y});
      EXPECT_TRUE(r.ok) << threads << " threads, SigmoidBce: " << r.worst;
    }
    {
      std::vector<Tensor> tables = {
          Tensor::Uniform(5, 3, -1.0f, 1.0f, &rng, /*requires_grad=*/true),
          Tensor::Uniform(4, 2, -1.0f, 1.0f, &rng, /*requires_grad=*/true)};
      const std::vector<std::vector<int>> ids = {{0, 2, 4, 2, 1, 3},
                                                 {1, 3, 0, 0, 2, 1}};
      const GradCheckResult r = CheckGradients(
          [&] { return ops::Mean(ops::EmbeddingConcat(tables, ids)); }, tables);
      EXPECT_TRUE(r.ok) << threads << " threads, EmbeddingConcat: " << r.worst;
    }
  }
}

}  // namespace
}  // namespace dcmt
