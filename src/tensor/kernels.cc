#include "tensor/kernels.h"

#include <algorithm>
#include <cstring>

// SIMD kernels (DESIGN.md §14). This file is the project's sanctioned
// raw-loop site: dcmt_lint exempts src/tensor/kernels* from the style rules
// that ops.cc obeys, because register blocking and padded-tail handling are
// exactly the code shapes those rules exist to discourage elsewhere.

namespace dcmt {
namespace kernels {
namespace {

// 8-wide float / int32 vectors via portable compiler vector extensions.
// All arithmetic below is lane-wise; GCC contracts a*b+c to FMA per lane
// (-ffp-contract is never disabled), and without -ffast-math it never
// reassociates across statements, so every accumulator written as a single
// sequential chain stays a single sequential chain in codegen.
typedef float Vf __attribute__((vector_size(32)));
typedef std::int32_t Vi __attribute__((vector_size(32)));

inline Vf LoadV(const float* p) {
  Vf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV(float* p, Vf v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads `n` (< kSimdWidth) floats, zero-filling the remaining lanes.
inline Vf LoadPartial(const float* p, int n) {
  float tmp[kSimdWidth] = {0.0f};
  std::memcpy(tmp, p, sizeof(float) * static_cast<std::size_t>(n));
  Vf v;
  std::memcpy(&v, tmp, sizeof(v));
  return v;
}

/// Stores the first `n` (< kSimdWidth) lanes only.
inline void StorePartial(float* p, Vf v, int n) {
  float tmp[kSimdWidth];
  std::memcpy(tmp, &v, sizeof(v));
  std::memcpy(p, tmp, sizeof(float) * static_cast<std::size_t>(n));
}

/// x in every lane, computed as +0 + x: a -0.0 input becomes +0.0. The
/// GEMM kernels broadcast A's elements this way, so the backward kernels
/// must reproduce exactly which operands pass through it.
inline Vf Splat(float x) { return Vf{} + x; }

/// x copied into every lane bit for bit (-0.0 stays -0.0).
inline Vf Broadcast(float x) { return Vf{x, x, x, x, x, x, x, x}; }

inline Vf BitsToVf(Vi b) {
  Vf v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

inline Vi VfToBits(Vf v) {
  Vi b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Horizontal sum with a FIXED reduction tree, so the scalar result does not
/// depend on how the caller arrived at the vector.
inline float HSum(Vf v) {
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

inline float HMax(Vf v) {
  const float a = std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
  const float b = std::max(std::max(v[4], v[5]), std::max(v[6], v[7]));
  return std::max(a, b);
}

/// Zeroes lanes >= n (used to exclude tail padding from reductions).
inline Vf MaskTail(Vf v, int n) {
  const Vi idx = {0, 1, 2, 3, 4, 5, 6, 7};
  return (idx < (Vi{} + n)) ? v : Vf{};
}

inline Vf VAbs(Vf x) { return x < Vf{} ? -x : x; }

inline Vf VMin(Vf a, Vf b) { return a < b ? a : b; }
inline Vf VMax(Vf a, Vf b) { return a > b ? a : b; }

// Vectorized e^x, Cephes single-precision polynomial (as popularized by
// sse_mathfun / avx_mathfun): range-reduce by n = floor(x/ln2 + 1/2) with a
// Cody–Waite split of ln2, evaluate a degree-5 polynomial on the remainder,
// and scale by 2^n through exponent-field arithmetic. Inputs are clamped to
// the finite range, so n never overflows the exponent field. Accurate to a
// couple of ulp; exp(0) == 1 exactly (n = 0, remainder 0, p(0) = 1).
inline Vf VExp(Vf x) {
  x = VMin(x, Splat(88.3762626647950f));
  x = VMax(x, Splat(-87.3365478515625f));

  const Vf z = x * Splat(1.44269504088896341f) + Splat(0.5f);
  Vi ni = __builtin_convertvector(z, Vi);  // trunc
  Vf nf = __builtin_convertvector(ni, Vf);
  nf += __builtin_convertvector(nf > z, Vf);  // -1 where trunc != floor
  x -= nf * Splat(0.693359375f);
  x += nf * Splat(2.12194440e-4f);

  const Vf xx = x * x;
  Vf p = Splat(1.9875691500e-4f);
  p = p * x + Splat(1.3981999507e-3f);
  p = p * x + Splat(8.3334519073e-3f);
  p = p * x + Splat(4.1665795894e-2f);
  p = p * x + Splat(1.6666665459e-1f);
  p = p * x + Splat(5.0000001201e-1f);
  p = p * xx + x + Splat(1.0f);

  ni = __builtin_convertvector(nf, Vi);
  const Vf pow2n = BitsToVf((ni + 127) << 23);
  return p * pow2n;
}

// Vectorized ln(x) for x > 0, Cephes single-precision polynomial: split into
// exponent e and mantissa m in [0.5, 1), fold m < 1/sqrt(2) into e, evaluate
// a degree-8 polynomial on m - 1, and recombine with the same Cody–Waite
// split of ln2 that VExp uses. log(1) == 0 exactly. Callers clamp inputs
// positive; non-positive lanes (only ever tail padding) produce finite
// garbage that is masked or never stored.
inline Vf VLog(Vf x) {
  const Vi bits = VfToBits(x);
  Vi e_i = ((bits >> 23) & 0xff) - 126;
  Vf m = BitsToVf((bits & 0x7fffff) | 0x3f000000);  // [0.5, 1)

  const Vi below = m < Splat(0.70710678118654752440f);
  e_i += below;              // e -= 1 where m < 1/sqrt(2)
  m = below ? m + m : m;     // m *= 2 there
  m -= Splat(1.0f);
  const Vf e = __builtin_convertvector(e_i, Vf);

  const Vf z = m * m;
  Vf p = Splat(7.0376836292e-2f);
  p = p * m + Splat(-1.1514610310e-1f);
  p = p * m + Splat(1.1676998740e-1f);
  p = p * m + Splat(-1.2420140846e-1f);
  p = p * m + Splat(1.4249322787e-1f);
  p = p * m + Splat(-1.6668057665e-1f);
  p = p * m + Splat(2.0000714765e-1f);
  p = p * m + Splat(-2.4999993993e-1f);
  p = p * m + Splat(3.3333331174e-1f);

  Vf y = m * z * p;
  y += e * Splat(-2.12194440e-4f);
  y -= Splat(0.5f) * z;
  return m + y + e * Splat(0.693359375f);
}

/// Numerically stable sigmoid: (x >= 0 ? 1 : e) / (1 + e), e = e^-|x|.
/// sigmoid(0) = 1/(1+1) = 0.5 exactly.
inline Vf VSigmoid(Vf x) {
  const Vf e = VExp(-VAbs(x));
  const Vf num = (x >= Vf{}) ? Splat(1.0f) : e;
  return num / (Splat(1.0f) + e);
}

/// tanh via exp: sign(x) * (1 - e) / (1 + e), e = e^-2|x|.
inline Vf VTanh(Vf x) {
  const Vf e = VExp(Splat(-2.0f) * VAbs(x));
  const Vf t = (Splat(1.0f) - e) / (Splat(1.0f) + e);
  return (x < Vf{}) ? -t : t;
}

/// Stable softplus: max(x, 0) + log(1 + e^-|x|).
inline Vf VSoftplus(Vf x) {
  const Vf e = VExp(-VAbs(x));
  return VMax(x, Vf{}) + VLog(Splat(1.0f) + e);
}

inline Vf VClamp(Vf x, float lo, float hi) {
  return VMin(VMax(x, Splat(lo)), Splat(hi));
}

// --- GEMM ------------------------------------------------------------------

/// One register tile: MR rows x 16 columns of C for a full K sweep over one
/// packed panel. Each of the 2*MR accumulators is a single sequential FMA
/// chain over ascending p; the chain is textually identical in every MR
/// instantiation, so a given output row is computed bit-identically whether
/// it lands in a full 6-row tile or any remainder tile — which is what makes
/// GemmRowsPacked invariant to the caller's row partition.
template <int MR>
inline void MicroKernel(const float* a, int lda, const float* panel, int k,
                        float* c, int ldc, int jn) {
  Vf acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = Vf{};
    acc1[r] = Vf{};
  }
  for (int p = 0; p < k; ++p) {
    const Vf b0 = LoadV(panel + static_cast<std::size_t>(p) * kGemmColTile);
    const Vf b1 =
        LoadV(panel + static_cast<std::size_t>(p) * kGemmColTile + kSimdWidth);
    for (int r = 0; r < MR; ++r) {
      const Vf av = Splat(a[static_cast<std::size_t>(r) * lda + p]);
      acc0[r] += av * b0;
      acc1[r] += av * b1;
    }
  }
  const int j0n = std::min(jn, kSimdWidth);
  const int j1n = jn - j0n;
  for (int r = 0; r < MR; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    if (j0n == kSimdWidth) {
      StoreV(crow, acc0[r]);
    } else {
      StorePartial(crow, acc0[r], j0n);
    }
    if (j1n == kSimdWidth) {
      StoreV(crow + kSimdWidth, acc1[r]);
    } else if (j1n > 0) {
      StorePartial(crow + kSimdWidth, acc1[r], j1n);
    }
  }
}

template <int MR>
inline void GemmRowBlock(const float* a, const float* packed, float* c, int k,
                         int n) {
  const int panels = (n + kGemmColTile - 1) / kGemmColTile;
  for (int pj = 0; pj < panels; ++pj) {
    const float* panel =
        packed + static_cast<std::size_t>(pj) * k * kGemmColTile;
    const int jn = std::min(kGemmColTile, n - pj * kGemmColTile);
    MicroKernel<MR>(a, k, panel, k, c + pj * kGemmColTile, n, jn);
  }
}

}  // namespace

std::int64_t GemmPackedSize(int k, int n) {
  const std::int64_t panels = (n + kGemmColTile - 1) / kGemmColTile;
  return panels * static_cast<std::int64_t>(k) * kGemmColTile;
}

void GemmPackB(const float* b, int k, int n, float* packed) {
  const int panels = (n + kGemmColTile - 1) / kGemmColTile;
  for (int pj = 0; pj < panels; ++pj) {
    const int j0 = pj * kGemmColTile;
    const int jn = std::min(kGemmColTile, n - j0);
    float* dst = packed + static_cast<std::size_t>(pj) * k * kGemmColTile;
    for (int p = 0; p < k; ++p, dst += kGemmColTile) {
      std::memcpy(dst, b + static_cast<std::size_t>(p) * n + j0,
                  sizeof(float) * static_cast<std::size_t>(jn));
      std::fill(dst + jn, dst + kGemmColTile, 0.0f);
    }
  }
}

void GemmRowsPacked(const float* a, const float* packed, float* c, int k,
                    int n, std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + kGemmRowTile <= i1; i += kGemmRowTile) {
    GemmRowBlock<kGemmRowTile>(a + i * k, packed, c + i * n, k, n);
  }
  switch (static_cast<int>(i1 - i)) {
    case 1: GemmRowBlock<1>(a + i * k, packed, c + i * n, k, n); break;
    case 2: GemmRowBlock<2>(a + i * k, packed, c + i * n, k, n); break;
    case 3: GemmRowBlock<3>(a + i * k, packed, c + i * n, k, n); break;
    case 4: GemmRowBlock<4>(a + i * k, packed, c + i * n, k, n); break;
    case 5: GemmRowBlock<5>(a + i * k, packed, c + i * n, k, n); break;
    default: break;
  }
}

namespace {

// --- Backward GEMMs ----------------------------------------------------------
// Both gradients keep their accumulators in registers for a whole reduction
// sweep. The per-element floating-point sequence is the contract (kernels.h):
// any rewrite here must reproduce it exactly, which KernelTest pins against
// the plain loops it replaced.

// Register tiles. The wide dA tile holds 8 * kGradARowTile accumulators and
// the dB column tile kGradBRowTile * 4; three dA rows and four dB rows fit
// the 32 vector registers of AVX-512VL, and 16 registers (AVX2) take one
// and two.
#if defined(__AVX512VL__)
constexpr int kGradARowTile = 3;
constexpr int kGradBRowTile = 4;
#else
constexpr int kGradARowTile = 1;
constexpr int kGradBRowTile = 2;
#endif

/// x rounded up to whole vectors (GemmPackBT's row stride and row count).
inline int RoundUpToVector(int x) {
  return (x + kSimdWidth - 1) / kSimdWidth * kSimdWidth;
}

/// HSum's tree applied lane-wise: lane q of the result is
/// ((v0+v1)+(v2+v3))+((v4+v5)+(v6+v7)) over lane q of the eight inputs.
inline Vf HSumLanes(const Vf (&v)[kSimdWidth]) {
  return ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
}

// dA runs lanes across 8 consecutive p of one dA row, reading B^T rows. In
// the row-vector formulation the kernels replace, dA[i][p] is HSum of an
// accumulator whose lane l sums dC[i][j] * B[p][j] over j = l, l+8, ...
// from +0, a final partial j-block adding 0 * 0 to its padding lanes. Here
// v[l] holds that lane-l chain for eight p at once, and HSumLanes evaluates
// the same tree, so every dA element gets the same bits.

/// R rows of dA x 8 p, 8 * R accumulators swept over the full j-blocks. A
/// ragged last block (kRagged; for n < 8, the only block) is computed
/// branch-free over all 8 lanes: padding lanes multiply a zero dC by B^T's
/// zero padding rows, exactly the 0 * 0 the zero-padded block adds. kRagged
/// is a template argument so the common whole-block shapes carry no tail
/// code, which would otherwise push the accumulators out of registers.
template <int R, bool kRagged>
inline void GradATile(const float* dc, const float* bt, int ldbt, float* da,
                      int k, int n, int p, int pn) {
  // Every loop over r and l is unrolled before scalar replacement runs, so
  // the accumulator array lives in registers rather than on the stack.
  Vf v[R][kSimdWidth];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int l = 0; l < kSimdWidth; ++l) v[r][l] = Vf{};
  }
  int j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
#pragma GCC unroll 8
    for (int l = 0; l < kSimdWidth; ++l) {
      const Vf bv = LoadV(bt + static_cast<std::size_t>(j + l) * ldbt + p);
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        v[r][l] += Broadcast(dc[static_cast<std::size_t>(r) * n + j + l]) * bv;
      }
    }
  }
  if (kRagged) {
    const int rem = n - j;
#pragma GCC unroll 8
    for (int l = 0; l < kSimdWidth; ++l) {
      const Vf bv = LoadV(bt + static_cast<std::size_t>(j + l) * ldbt + p);
      const int jl = j + std::min(l, rem - 1);  // in-row even when unused
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const float g = dc[static_cast<std::size_t>(r) * n + jl];
        v[r][l] += Broadcast(l < rem ? g : 0.0f) * bv;
      }
    }
  }
  Vf h[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) h[r] = HSumLanes(v[r]);
  if (pn == kSimdWidth) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      float* drow = da + static_cast<std::size_t>(r) * k + p;
      StoreV(drow, LoadV(drow) + h[r]);
    }
  } else {
    for (int r = 0; r < R; ++r) {
      float* drow = da + static_cast<std::size_t>(r) * k + p;
      StorePartial(drow, LoadPartial(drow, pn) + h[r], pn);
    }
  }
}

template <bool kRagged>
void GradAWide(const float* dc, const float* bt, int ldbt, float* da, int k,
               int n, std::int64_t i0, std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + kGradARowTile <= i1; i += kGradARowTile) {
    for (int p = 0; p < k; p += kSimdWidth) {
      GradATile<kGradARowTile, kRagged>(dc + i * n, bt, ldbt, da + i * k, k, n,
                                        p, std::min(kSimdWidth, k - p));
    }
  }
  for (; i < i1; ++i) {
    for (int p = 0; p < k; p += kSimdWidth) {
      GradATile<1, kRagged>(dc + i * n, bt, ldbt, da + i * k, k, n, p,
                            std::min(kSimdWidth, k - p));
    }
  }
}

/// dB tile over columns: PB rows of dB x JB vectors of columns, each
/// accumulator loaded from dB once, swept over every sample i in ascending
/// order, and stored once.
template <int PB, int JB>
inline void GradBColTile(const float* a, const float* dc, float* db, int m,
                         int k, int n, std::int64_t p, int j) {
  Vf acc[PB][JB];
  for (int pp = 0; pp < PB; ++pp) {
    for (int jj = 0; jj < JB; ++jj) {
      acc[pp][jj] = LoadV(db + (p + pp) * n + j + jj * kSimdWidth);
    }
  }
  for (int i = 0; i < m; ++i) {
    const float* grow = dc + static_cast<std::size_t>(i) * n + j;
    const float* arow = a + static_cast<std::size_t>(i) * k + p;
    Vf g[JB];
    for (int jj = 0; jj < JB; ++jj) g[jj] = LoadV(grow + jj * kSimdWidth);
    for (int pp = 0; pp < PB; ++pp) {
      const Vf av = Splat(arow[pp]);
      for (int jj = 0; jj < JB; ++jj) acc[pp][jj] += av * g[jj];
    }
  }
  for (int pp = 0; pp < PB; ++pp) {
    for (int jj = 0; jj < JB; ++jj) {
      StoreV(db + (p + pp) * n + j + jj * kSimdWidth, acc[pp][jj]);
    }
  }
}

template <int PB>
inline void GradBColRows(const float* a, const float* dc, float* db, int m,
                         int k, int n, int n8, std::int64_t p) {
  constexpr int kJB = 4;
  int j = 0;
  for (; j + kJB * kSimdWidth <= n8; j += kJB * kSimdWidth) {
    GradBColTile<PB, kJB>(a, dc, db, m, k, n, p, j);
  }
  for (; j < n8; j += kSimdWidth) {
    GradBColTile<PB, 1>(a, dc, db, m, k, n, p, j);
  }
}

/// dB tile over rows, for one column j: PV vectors of 8 consecutive p, with
/// A's row segment a[i][p..p+8*PV) loaded contiguously and dC[i][j]
/// broadcast. Used for the columns a full vector cannot cover (n < 8, and
/// the n % 8 tail). `lo`/`hi` bound the lanes of the LAST vector that this
/// call owns — [lo, hi) relative to its first p — and that vector's A loads
/// start at `base`, which may reach back before p (an overlapped window that
/// stays inside the row) or, when k < 8, go through a zero-padded load.
template <int PV>
inline void GradBRowTile(const float* a, const float* dc, float* db, int m,
                         int k, int n, int j, std::int64_t p, int lo, int hi,
                         std::int64_t base) {
  const bool padded = k < kSimdWidth;
  Vf acc[PV];
  for (int v = 0; v < PV; ++v) {
    const std::int64_t first = v + 1 == PV ? base : p + v * kSimdWidth;
    const int qlo = v + 1 == PV ? lo : 0;
    const int qhi = v + 1 == PV ? hi : kSimdWidth;
    float col[kSimdWidth] = {0.0f};
    for (int q = qlo; q < qhi; ++q) col[q] = db[(first + q) * n + j];
    acc[v] = LoadV(col);
  }
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    const Vf g = Broadcast(dc[static_cast<std::size_t>(i) * n + j]);
    // Vf{} + a: A's elements pass through Splat's +0 add, as they do in the
    // column-vector tiles.
    for (int v = 0; v + 1 < PV; ++v) {
      acc[v] += (Vf{} + LoadV(arow + p + v * kSimdWidth)) * g;
    }
    const Vf last = padded ? LoadPartial(arow, k) : LoadV(arow + base);
    acc[PV - 1] += (Vf{} + last) * g;
  }
  for (int v = 0; v < PV; ++v) {
    const std::int64_t first = v + 1 == PV ? base : p + v * kSimdWidth;
    const int qlo = v + 1 == PV ? lo : 0;
    const int qhi = v + 1 == PV ? hi : kSimdWidth;
    float col[kSimdWidth];
    StoreV(col, acc[v]);
    for (int q = qlo; q < qhi; ++q) db[(first + q) * n + j] = col[q];
  }
}

void GradBColumn(const float* a, const float* dc, float* db, int m, int k,
                 int n, int j, std::int64_t p0, std::int64_t p1) {
  constexpr int kPV = 4;
  std::int64_t p = p0;
  for (; p + kPV * kSimdWidth <= p1; p += kPV * kSimdWidth) {
    GradBRowTile<kPV>(a, dc, db, m, k, n, j, p, 0, kSimdWidth,
                      p + (kPV - 1) * kSimdWidth);
  }
  for (; p + kSimdWidth <= p1; p += kSimdWidth) {
    GradBRowTile<1>(a, dc, db, m, k, n, j, p, 0, kSimdWidth, p);
  }
  if (p < p1) {
    // Ragged tail: a full-width window ending inside the row when k allows
    // it, otherwise a zero-padded load from the row start (k < 8).
    const std::int64_t base =
        k >= kSimdWidth ? std::min<std::int64_t>(p, k - kSimdWidth) : 0;
    GradBRowTile<1>(a, dc, db, m, k, n, j, p, static_cast<int>(p - base),
                    static_cast<int>(p1 - base), base);
  }
}

}  // namespace

std::int64_t GemmPackedBTSize(int k, int n) {
  return static_cast<std::int64_t>(RoundUpToVector(n)) * RoundUpToVector(k);
}

void GemmPackBT(const float* b, int k, int n, float* packed) {
  const int ldbt = RoundUpToVector(k);
  for (int j = 0; j < n; ++j) {
    float* dst = packed + static_cast<std::size_t>(j) * ldbt;
    for (int p = 0; p < k; ++p) dst[p] = b[static_cast<std::size_t>(p) * n + j];
    std::fill(dst + k, dst + ldbt, 0.0f);
  }
  std::fill(packed + static_cast<std::size_t>(n) * ldbt,
            packed + GemmPackedBTSize(k, n), 0.0f);
}

void GemmGradARows(const float* dc, const float* bt, float* da, int k, int n,
                   std::int64_t i0, std::int64_t i1) {
  const int ldbt = RoundUpToVector(k);
  if (n % kSimdWidth == 0) {
    GradAWide<false>(dc, bt, ldbt, da, k, n, i0, i1);
  } else {
    GradAWide<true>(dc, bt, ldbt, da, k, n, i0, i1);
  }
}

void GemmGradBRows(const float* a, const float* dc, float* db, int m, int k,
                   int n, std::int64_t p0, std::int64_t p1) {
  const int n8 = n / kSimdWidth * kSimdWidth;
  if (n8 > 0) {
    std::int64_t p = p0;
    for (; p + kGradBRowTile <= p1; p += kGradBRowTile) {
      GradBColRows<kGradBRowTile>(a, dc, db, m, k, n, n8, p);
    }
    for (; p < p1; ++p) GradBColRows<1>(a, dc, db, m, k, n, n8, p);
  }
  for (int j = n8; j < n; ++j) GradBColumn(a, dc, db, m, k, n, j, p0, p1);
}

void AccumulateColumnSums(const float* g, float* out, int m, int n,
                          std::int64_t c0, std::int64_t c1) {
  constexpr int kCV = 4;
  std::int64_t c = c0;
  for (; c + kCV * kSimdWidth <= c1; c += kCV * kSimdWidth) {
    Vf acc[kCV];
    for (int v = 0; v < kCV; ++v) acc[v] = LoadV(out + c + v * kSimdWidth);
    for (int r = 0; r < m; ++r) {
      const float* row = g + static_cast<std::size_t>(r) * n + c;
      for (int v = 0; v < kCV; ++v) acc[v] += LoadV(row + v * kSimdWidth);
    }
    for (int v = 0; v < kCV; ++v) StoreV(out + c + v * kSimdWidth, acc[v]);
  }
  for (; c + kSimdWidth <= c1; c += kSimdWidth) {
    Vf acc = LoadV(out + c);
    for (int r = 0; r < m; ++r) {
      acc += LoadV(g + static_cast<std::size_t>(r) * n + c);
    }
    StoreV(out + c, acc);
  }
  for (; c < c1; ++c) {
    float acc = out[c];
    for (int r = 0; r < m; ++r) acc += g[static_cast<std::size_t>(r) * n + c];
    out[c] = acc;
  }
}

// --- Elementwise maps ------------------------------------------------------
// Each body runs one lane-wise vector expression over full blocks, then the
// SAME expression on a zero-padded register for the tail; only valid lanes
// are stored, so results are independent of where [i0, i1) starts and ends.

#define DCMT_MAP_BODY(EXPR_V)                                      \
  std::int64_t i = i0;                                             \
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {                  \
    const Vf x = LoadV(xp + i);                                    \
    StoreV(yp + i, (EXPR_V));                                      \
  }                                                                \
  if (i < i1) {                                                    \
    const int r = static_cast<int>(i1 - i);                        \
    const Vf x = LoadPartial(xp + i, r);                           \
    StorePartial(yp + i, (EXPR_V), r);                             \
  }

#define DCMT_MAP_GRAD_BODY(EXPR_V)                                 \
  std::int64_t i = i0;                                             \
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {                  \
    const Vf s = LoadV(sp + i);                                    \
    const Vf g = LoadV(gp + i);                                    \
    StoreV(xg + i, LoadV(xg + i) + (EXPR_V));                      \
  }                                                                \
  if (i < i1) {                                                    \
    const int r = static_cast<int>(i1 - i);                        \
    const Vf s = LoadPartial(sp + i, r);                           \
    const Vf g = LoadPartial(gp + i, r);                           \
    StorePartial(xg + i, LoadPartial(xg + i, r) + (EXPR_V), r);    \
  }

void MapSigmoid(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VSigmoid(x))
}

void MapSigmoidGrad(const float* sp, const float* gp, float* xg,
                    std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * (s * (Splat(1.0f) - s)))
}

void MapRelu(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VMax(x, Vf{}))
}

void MapReluGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_GRAD_BODY((s > Vf{}) ? g : Vf{})
}

void MapTanh(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VTanh(x))
}

void MapTanhGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * (Splat(1.0f) - s * s))
}

void MapExp(const float* xp, float* yp, std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_BODY(VExp(x))
}

void MapExpGrad(const float* sp, const float* gp, float* xg, std::int64_t i0,
                std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * s)
}

void MapLog(const float* xp, float* yp, float eps, std::int64_t i0,
            std::int64_t i1) {
  DCMT_MAP_BODY(VLog(VMax(x, Splat(eps))))
}

void MapLogGrad(const float* sp, const float* gp, float* xg, float eps,
                std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g / VMax(s, Splat(eps)))
}

void MapSoftplus(const float* xp, float* yp, std::int64_t i0,
                 std::int64_t i1) {
  DCMT_MAP_BODY(VSoftplus(x))
}

void MapSoftplusGrad(const float* sp, const float* gp, float* xg,
                     std::int64_t i0, std::int64_t i1) {
  DCMT_MAP_GRAD_BODY(g * VSigmoid(s))
}

#undef DCMT_MAP_BODY
#undef DCMT_MAP_GRAD_BODY

void MapBce(const float* p, const float* y, float* out, float eps,
            std::int64_t i0, std::int64_t i1) {
  const auto expr = [eps](Vf pv, Vf yv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return -yv * VLog(pc) - (Splat(1.0f) - yv) * VLog(Splat(1.0f) - pc);
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    StoreV(out + i, expr(LoadV(p + i), LoadV(y + i)));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    StorePartial(out + i, expr(LoadPartial(p + i, r), LoadPartial(y + i, r)),
                 r);
  }
}

void MapBceGrad(const float* p, const float* y, const float* g, float* pg,
                float* yg, float eps, std::int64_t i0, std::int64_t i1) {
  const auto dpred = [eps](Vf pv, Vf yv, Vf gv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return gv * ((pc - yv) / (pc * (Splat(1.0f) - pc)));
  };
  const auto dtarget = [eps](Vf pv, Vf gv) {
    const Vf pc = VClamp(pv, eps, 1.0f - eps);
    return gv * (VLog(Splat(1.0f) - pc) - VLog(pc));
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    const Vf pv = LoadV(p + i);
    const Vf yv = LoadV(y + i);
    const Vf gv = LoadV(g + i);
    if (pg != nullptr) StoreV(pg + i, LoadV(pg + i) + dpred(pv, yv, gv));
    if (yg != nullptr) StoreV(yg + i, LoadV(yg + i) + dtarget(pv, gv));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    const Vf pv = LoadPartial(p + i, r);
    const Vf yv = LoadPartial(y + i, r);
    const Vf gv = LoadPartial(g + i, r);
    if (pg != nullptr) {
      StorePartial(pg + i, LoadPartial(pg + i, r) + dpred(pv, yv, gv), r);
    }
    if (yg != nullptr) {
      StorePartial(yg + i, LoadPartial(yg + i, r) + dtarget(pv, gv), r);
    }
  }
}

void MapSigmoidBce(const float* z, const float* y, float* out, std::int64_t i0,
                   std::int64_t i1) {
  const auto expr = [](Vf zv, Vf yv) {
    // max(z,0) - z*y + log(1 + e^-|z|): the standard overflow-free form of
    // BCE-with-logits; algebraically -y log σ(z) - (1-y) log(1-σ(z)).
    const Vf e = VExp(-VAbs(zv));
    return VMax(zv, Vf{}) - zv * yv + VLog(Splat(1.0f) + e);
  };
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    StoreV(out + i, expr(LoadV(z + i), LoadV(y + i)));
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    StorePartial(out + i, expr(LoadPartial(z + i, r), LoadPartial(y + i, r)),
                 r);
  }
}

void MapSigmoidBceGrad(const float* z, const float* y, const float* g,
                       float* zg, float* yg, std::int64_t i0,
                       std::int64_t i1) {
  std::int64_t i = i0;
  for (; i + kSimdWidth <= i1; i += kSimdWidth) {
    const Vf zv = LoadV(z + i);
    const Vf yv = LoadV(y + i);
    const Vf gv = LoadV(g + i);
    if (zg != nullptr) {
      StoreV(zg + i, LoadV(zg + i) + gv * (VSigmoid(zv) - yv));
    }
    if (yg != nullptr) StoreV(yg + i, LoadV(yg + i) + gv * -zv);
  }
  if (i < i1) {
    const int r = static_cast<int>(i1 - i);
    const Vf zv = LoadPartial(z + i, r);
    const Vf yv = LoadPartial(y + i, r);
    const Vf gv = LoadPartial(g + i, r);
    if (zg != nullptr) {
      StorePartial(zg + i, LoadPartial(zg + i, r) + gv * (VSigmoid(zv) - yv),
                   r);
    }
    if (yg != nullptr) {
      StorePartial(yg + i, LoadPartial(yg + i, r) + gv * -zv, r);
    }
  }
}

void SoftmaxRowForward(const float* row, float* orow, int n) {
  // Row max (tail padded with the first element, which never wins wrongly).
  Vf vmax = Splat(row[0]);
  int j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) vmax = VMax(vmax, LoadV(row + j));
  float mx = HMax(vmax);
  for (; j < n; ++j) mx = std::max(mx, row[j]);

  // Exponentials and their sum; tail lanes are masked out of the sum.
  const Vf vmx = Splat(mx);
  Vf vsum = Vf{};
  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    const Vf e = VExp(LoadV(row + j) - vmx);
    StoreV(orow + j, e);
    vsum += e;
  }
  if (j < n) {
    const int r = n - j;
    const Vf e = VExp(LoadPartial(row + j, r) - vmx);
    StorePartial(orow + j, e, r);
    vsum += MaskTail(e, r);
  }
  const float inv = 1.0f / HSum(vsum);

  const Vf vinv = Splat(inv);
  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    StoreV(orow + j, LoadV(orow + j) * vinv);
  }
  if (j < n) {
    const int r = n - j;
    StorePartial(orow + j, LoadPartial(orow + j, r) * vinv, r);
  }
}

void SoftmaxRowBackward(const float* y, const float* g, float* arow, int n) {
  Vf vdot = Vf{};
  int j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    vdot += LoadV(g + j) * LoadV(y + j);
  }
  if (j < n) {
    vdot += LoadPartial(g + j, n - j) * LoadPartial(y + j, n - j);
  }
  const Vf dot = Splat(HSum(vdot));

  j = 0;
  for (; j + kSimdWidth <= n; j += kSimdWidth) {
    StoreV(arow + j,
           LoadV(arow + j) + LoadV(y + j) * (LoadV(g + j) - dot));
  }
  if (j < n) {
    const int r = n - j;
    StorePartial(arow + j,
                 LoadPartial(arow + j, r) +
                     LoadPartial(y + j, r) * (LoadPartial(g + j, r) - dot),
                 r);
  }
}

double ReduceSum(const float* x, std::int64_t i0, std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) acc += x[i];
  return acc;
}

double ReduceDot(const float* a, const float* w, std::int64_t i0,
                 std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) {
    acc += static_cast<double>(a[i] * w[i]);
  }
  return acc;
}

double ReduceSquares(const float* x, std::int64_t i0, std::int64_t i1) {
  double acc = 0.0;
  for (std::int64_t i = i0; i < i1; ++i) {
    acc += static_cast<double>(x[i] * x[i]);
  }
  return acc;
}

}  // namespace kernels
}  // namespace dcmt
