#include "util/simd.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/ascii.h"

// x86-64 only (not i386: SSE2 is baseline on x86-64 but not on i386,
// and the attribute-less SSE2 functions below rely on that baseline).
#if defined(__x86_64__)
#include <immintrin.h>
#define SSSJ_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define SSSJ_SIMD_NEON 1
#endif

namespace sssj {
namespace {

// ---- Cephes-style exp: exp(x) = 2^n · (1 + 2p/(q − p)) with
// n = round(x·log2 e), r = x − n·ln 2 (two-term Cody–Waite), p = r·P(r²),
// q = Q(r²). Accurate to ~2 ulp over |r| ≤ ln2/2; every ISA variant below
// evaluates exactly this scheme so levels differ only by FMA contraction.
constexpr double kLog2E = 1.4426950408889634073599;
constexpr double kC1 = 6.93145751953125E-1;
constexpr double kC2 = 1.42860682030941723212E-6;
constexpr double kP0 = 1.26177193074810590878E-4;
constexpr double kP1 = 3.02994407707441961300E-2;
constexpr double kP2 = 9.99999999999999999910E-1;
constexpr double kQ0 = 3.00198505138664455042E-6;
constexpr double kQ1 = 2.52448340349684104192E-3;
constexpr double kQ2 = 2.27265548208155028766E-1;
constexpr double kQ3 = 2.00000000000000000005E0;
// Clamp bounds: above kMaxX the result is pinned to exp(kMaxX) (the
// engine never passes positive arguments); below kMinX it underflows to 0.
constexpr double kMaxX = 709.0;
constexpr double kMinX = -745.0;
// Adding then subtracting 2^52 + 2^51 rounds |v| < 2^51 to the nearest
// integer (ties to even) — the SSE2 substitute for the roundpd
// instruction, used by the scalar path too so all levels agree on n.
constexpr double kRoundMagic = 6755399441055744.0;

// 2^k as a double via exponent bits; valid for k ∈ [-1022, 1023].
inline double Pow2(int64_t k) {
  const uint64_t bits = static_cast<uint64_t>(k + 1023) << 52;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

inline double ExpOne(double x) {
  x = std::min(x, kMaxX);
  if (x < kMinX) return 0.0;
  const double n = (x * kLog2E + kRoundMagic) - kRoundMagic;
  const double r = (x - n * kC1) - n * kC2;
  const double r2 = r * r;
  const double p = r * (kP2 + r2 * (kP1 + r2 * kP0));
  const double q = kQ3 + r2 * (kQ2 + r2 * (kQ1 + r2 * kQ0));
  const double e = 1.0 + 2.0 * p / (q - p);
  // 2^n in two factors so results below 2^-1022 degrade gradually into
  // denormals instead of hitting an invalid exponent encoding.
  const int64_t ni = static_cast<int64_t>(n);
  const int64_t n1 = ni >> 1;  // arithmetic shift: floor(n/2)
  return e * Pow2(n1) * Pow2(ni - n1);
}

void ExpBlockScalar(const double* x, size_t n, double* out) {
  for (size_t k = 0; k < n; ++k) out[k] = ExpOne(x[k]);
}

void DecayBlockScalar(const double* ts, size_t n, double now, double lambda,
                      double* out) {
  const double nl = -lambda;
  for (size_t k = 0; k < n; ++k) out[k] = ExpOne(nl * (now - ts[k]));
}

#if defined(SSSJ_SIMD_X86)

// ---- AVX2 + FMA (4 lanes) ----

__attribute__((target("avx2,fma"))) inline __m256d ExpAvx2(__m256d x) {
  x = _mm256_min_pd(x, _mm256_set1_pd(kMaxX));
  const __m256d underflow =
      _mm256_cmp_pd(x, _mm256_set1_pd(kMinX), _CMP_LT_OQ);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kC1), x);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(kC2), r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_fmadd_pd(r2, _mm256_set1_pd(kP0), _mm256_set1_pd(kP1));
  p = _mm256_fmadd_pd(r2, p, _mm256_set1_pd(kP2));
  p = _mm256_mul_pd(r, p);
  __m256d q = _mm256_fmadd_pd(r2, _mm256_set1_pd(kQ0), _mm256_set1_pd(kQ1));
  q = _mm256_fmadd_pd(r2, q, _mm256_set1_pd(kQ2));
  q = _mm256_fmadd_pd(r2, q, _mm256_set1_pd(kQ3));
  const __m256d frac = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  __m256d e =
      _mm256_fmadd_pd(frac, _mm256_set1_pd(2.0), _mm256_set1_pd(1.0));
  // 2^n via exponent bits, split n = n1 + n2 in the 32-bit domain (n is
  // integral and |n| ≤ 1075, and n + 1023 ≥ 0 after the kMinX clamp).
  const __m128i ni = _mm256_cvtpd_epi32(n);
  const __m128i n1 = _mm_srai_epi32(ni, 1);
  const __m128i n2 = _mm_sub_epi32(ni, n1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256d f1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(n1, bias)), 52));
  const __m256d f2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(n2, bias)), 52));
  e = _mm256_mul_pd(_mm256_mul_pd(e, f1), f2);
  return _mm256_andnot_pd(underflow, e);
}

// Tails shorter than a register are padded and pushed through the same
// vector code path (never the plain-C polynomial, whose FMA contraction
// is at the compiler's discretion): every element's result is therefore
// independent of where block boundaries fall. Posting-list spans batch
// differently across otherwise-identical runs (buffer wrap points,
// frozen blocks), so batching-invariance is what keeps the SIMD path's
// output deterministic however the posting lists are stored.

__attribute__((target("avx2,fma"))) void ExpBlockAvx2(const double* x,
                                                      size_t n, double* out) {
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(out + k, ExpAvx2(_mm256_loadu_pd(x + k)));
  }
  if (k < n) {
    double tmp[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t t = k; t < n; ++t) tmp[t - k] = x[t];
    double res[4];
    _mm256_storeu_pd(res, ExpAvx2(_mm256_loadu_pd(tmp)));
    for (size_t t = k; t < n; ++t) out[t] = res[t - k];
  }
}

__attribute__((target("avx2,fma"))) void DecayBlockAvx2(const double* ts,
                                                        size_t n, double now,
                                                        double lambda,
                                                        double* out) {
  const __m256d vnow = _mm256_set1_pd(now);
  const __m256d vnl = _mm256_set1_pd(-lambda);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d arg =
        _mm256_mul_pd(vnl, _mm256_sub_pd(vnow, _mm256_loadu_pd(ts + k)));
    _mm256_storeu_pd(out + k, ExpAvx2(arg));
  }
  if (k < n) {
    double tmp[4] = {now, now, now, now};
    for (size_t t = k; t < n; ++t) tmp[t - k] = ts[t];
    const __m256d arg =
        _mm256_mul_pd(vnl, _mm256_sub_pd(vnow, _mm256_loadu_pd(tmp)));
    double res[4];
    _mm256_storeu_pd(res, ExpAvx2(arg));
    for (size_t t = k; t < n; ++t) out[t] = res[t - k];
  }
}

// ---- SSE2 (2 lanes; the x86-64 baseline) ----

inline __m128d ExpSse2(__m128d x) {
  x = _mm_min_pd(x, _mm_set1_pd(kMaxX));
  const __m128d underflow = _mm_cmplt_pd(x, _mm_set1_pd(kMinX));
  // No roundpd before SSE4.1: the magic-number trick rounds to nearest.
  const __m128d magic = _mm_set1_pd(kRoundMagic);
  const __m128d n = _mm_sub_pd(
      _mm_add_pd(_mm_mul_pd(x, _mm_set1_pd(kLog2E)), magic), magic);
  __m128d r = _mm_sub_pd(x, _mm_mul_pd(n, _mm_set1_pd(kC1)));
  r = _mm_sub_pd(r, _mm_mul_pd(n, _mm_set1_pd(kC2)));
  const __m128d r2 = _mm_mul_pd(r, r);
  __m128d p = _mm_add_pd(_mm_mul_pd(r2, _mm_set1_pd(kP0)),
                         _mm_set1_pd(kP1));
  p = _mm_add_pd(_mm_mul_pd(r2, p), _mm_set1_pd(kP2));
  p = _mm_mul_pd(r, p);
  __m128d q = _mm_add_pd(_mm_mul_pd(r2, _mm_set1_pd(kQ0)),
                         _mm_set1_pd(kQ1));
  q = _mm_add_pd(_mm_mul_pd(r2, q), _mm_set1_pd(kQ2));
  q = _mm_add_pd(_mm_mul_pd(r2, q), _mm_set1_pd(kQ3));
  const __m128d frac = _mm_div_pd(p, _mm_sub_pd(q, p));
  __m128d e = _mm_add_pd(_mm_add_pd(frac, frac), _mm_set1_pd(1.0));
  const __m128i ni = _mm_cvtpd_epi32(n);  // 2 valid int32 lanes
  const __m128i n1 = _mm_srai_epi32(ni, 1);
  const __m128i n2 = _mm_sub_epi32(ni, n1);
  const __m128i bias = _mm_set1_epi32(1023);
  // Biased exponents are positive (≥ 485), so zero-extension to 64 bits
  // is a plain unpack with zeros.
  const __m128i zero = _mm_setzero_si128();
  const __m128d f1 = _mm_castsi128_pd(_mm_slli_epi64(
      _mm_unpacklo_epi32(_mm_add_epi32(n1, bias), zero), 52));
  const __m128d f2 = _mm_castsi128_pd(_mm_slli_epi64(
      _mm_unpacklo_epi32(_mm_add_epi32(n2, bias), zero), 52));
  e = _mm_mul_pd(_mm_mul_pd(e, f1), f2);
  return _mm_andnot_pd(underflow, e);
}

void ExpBlockSse2(const double* x, size_t n, double* out) {
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    _mm_storeu_pd(out + k, ExpSse2(_mm_loadu_pd(x + k)));
  }
  if (k < n) {  // padded tail: same vector path, batching-invariant
    const __m128d arg = _mm_set_pd(0.0, x[k]);
    double res[2];
    _mm_storeu_pd(res, ExpSse2(arg));
    out[k] = res[0];
  }
}

void DecayBlockSse2(const double* ts, size_t n, double now, double lambda,
                    double* out) {
  const __m128d vnow = _mm_set1_pd(now);
  const __m128d vnl = _mm_set1_pd(-lambda);
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const __m128d arg =
        _mm_mul_pd(vnl, _mm_sub_pd(vnow, _mm_loadu_pd(ts + k)));
    _mm_storeu_pd(out + k, ExpSse2(arg));
  }
  if (k < n) {  // padded tail: same vector path, batching-invariant
    const __m128d arg =
        _mm_mul_pd(vnl, _mm_sub_pd(vnow, _mm_set_pd(now, ts[k])));
    double res[2];
    _mm_storeu_pd(res, ExpSse2(arg));
    out[k] = res[0];
  }
}

#elif defined(SSSJ_SIMD_NEON)

// ---- NEON (aarch64, 2 lanes) ----

inline float64x2_t ExpNeon(float64x2_t x) {
  x = vminq_f64(x, vdupq_n_f64(kMaxX));
  const uint64x2_t underflow = vcltq_f64(x, vdupq_n_f64(kMinX));
  const float64x2_t n =
      vrndnq_f64(vmulq_f64(x, vdupq_n_f64(kLog2E)));  // nearest, ties even
  float64x2_t r = vfmsq_f64(x, n, vdupq_n_f64(kC1));  // x - n*C1
  r = vfmsq_f64(r, n, vdupq_n_f64(kC2));
  const float64x2_t r2 = vmulq_f64(r, r);
  float64x2_t p = vfmaq_f64(vdupq_n_f64(kP1), r2, vdupq_n_f64(kP0));
  p = vfmaq_f64(vdupq_n_f64(kP2), r2, p);
  p = vmulq_f64(r, p);
  float64x2_t q = vfmaq_f64(vdupq_n_f64(kQ1), r2, vdupq_n_f64(kQ0));
  q = vfmaq_f64(vdupq_n_f64(kQ2), r2, q);
  q = vfmaq_f64(vdupq_n_f64(kQ3), r2, q);
  const float64x2_t frac = vdivq_f64(p, vsubq_f64(q, p));
  float64x2_t e = vfmaq_f64(vdupq_n_f64(1.0), frac, vdupq_n_f64(2.0));
  const int64x2_t ni = vcvtq_s64_f64(n);  // n is integral; mode moot
  const int64x2_t n1 = vshrq_n_s64(ni, 1);
  const int64x2_t n2 = vsubq_s64(ni, n1);
  const int64x2_t bias = vdupq_n_s64(1023);
  const float64x2_t f1 =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(n1, bias), 52));
  const float64x2_t f2 =
      vreinterpretq_f64_s64(vshlq_n_s64(vaddq_s64(n2, bias), 52));
  e = vmulq_f64(vmulq_f64(e, f1), f2);
  return vbslq_f64(underflow, vdupq_n_f64(0.0), e);
}

void ExpBlockNeon(const double* x, size_t n, double* out) {
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    vst1q_f64(out + k, ExpNeon(vld1q_f64(x + k)));
  }
  if (k < n) {  // padded tail: same vector path, batching-invariant
    const double tmp[2] = {x[k], 0.0};
    double res[2];
    vst1q_f64(res, ExpNeon(vld1q_f64(tmp)));
    out[k] = res[0];
  }
}

void DecayBlockNeon(const double* ts, size_t n, double now, double lambda,
                    double* out) {
  const float64x2_t vnow = vdupq_n_f64(now);
  const float64x2_t vnl = vdupq_n_f64(-lambda);
  size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t arg = vmulq_f64(vnl, vsubq_f64(vnow, vld1q_f64(ts + k)));
    vst1q_f64(out + k, ExpNeon(arg));
  }
  if (k < n) {  // padded tail: same vector path, batching-invariant
    const double tmp[2] = {ts[k], now};
    const float64x2_t arg = vmulq_f64(vnl, vsubq_f64(vnow, vld1q_f64(tmp)));
    double res[2];
    vst1q_f64(res, ExpNeon(arg));
    out[k] = res[0];
  }
}

#endif  // SSSJ_SIMD_X86 / SSSJ_SIMD_NEON

// Active dispatch level. A function-local static gives thread-safe
// first-use initialization: with kernel=simd the first callers can be
// concurrent MB window-close workers or sessions on different threads,
// and they must all observe the same level (mixed levels would break the
// bit-identical determinism contract on the very first arrival).
SimdLevel& ActiveLevelRef() {
  static SimdLevel level = DetectSimdLevel();
  return level;
}

}  // namespace

SimdLevel DetectSimdLevel() {
#if defined(SSSJ_SIMD_X86)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kSse2;  // x86-64 baseline
#elif defined(SSSJ_SIMD_NEON)
  return SimdLevel::kNeon;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel ActiveSimdLevel() { return ActiveLevelRef(); }

void ForceSimdLevelForTest(SimdLevel level) {
  const SimdLevel detected = DetectSimdLevel();
  // Never dispatch above what the CPU can execute.
  if (level == SimdLevel::kAvx2 && detected != SimdLevel::kAvx2) {
    level = detected;
  }
#if !defined(SSSJ_SIMD_X86)
  if (level == SimdLevel::kSse2) level = detected;
#endif
#if !defined(SSSJ_SIMD_NEON)
  if (level == SimdLevel::kNeon) level = SimdLevel::kScalar;
#else
  if (level == SimdLevel::kSse2 || level == SimdLevel::kAvx2) {
    level = detected;
  }
#endif
  ActiveLevelRef() = level;
}

bool KernelModeUsesSimd(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar:
      return false;
    case KernelMode::kSimd:
      return true;
    case KernelMode::kAuto:
      return ActiveSimdLevel() != SimdLevel::kScalar;
  }
  return false;
}

const char* ToString(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "?";
}

const char* ToString(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kSimd:
      return "simd";
  }
  return "?";
}

bool ParseKernelMode(const std::string& s, KernelMode* out) {
  const std::string l = AsciiLower(s);
  if (l == "auto") {
    *out = KernelMode::kAuto;
    return true;
  }
  if (l == "scalar") {
    *out = KernelMode::kScalar;
    return true;
  }
  if (l == "simd") {
    *out = KernelMode::kSimd;
    return true;
  }
  return false;
}

namespace simd {

void ExpBlock(const double* x, size_t n, double* out) {
  switch (ActiveSimdLevel()) {
#if defined(SSSJ_SIMD_X86)
    case SimdLevel::kAvx2:
      ExpBlockAvx2(x, n, out);
      return;
    case SimdLevel::kSse2:
      ExpBlockSse2(x, n, out);
      return;
#elif defined(SSSJ_SIMD_NEON)
    case SimdLevel::kNeon:
      ExpBlockNeon(x, n, out);
      return;
#endif
    default:
      ExpBlockScalar(x, n, out);
      return;
  }
}

void DecayBlock(const double* ts, size_t n, double now, double lambda,
                double* out) {
  switch (ActiveSimdLevel()) {
#if defined(SSSJ_SIMD_X86)
    case SimdLevel::kAvx2:
      DecayBlockAvx2(ts, n, now, lambda, out);
      return;
    case SimdLevel::kSse2:
      DecayBlockSse2(ts, n, now, lambda, out);
      return;
#elif defined(SSSJ_SIMD_NEON)
    case SimdLevel::kNeon:
      DecayBlockNeon(ts, n, now, lambda, out);
      return;
#endif
    default:
      DecayBlockScalar(ts, n, now, lambda, out);
      return;
  }
}

void ScaleBlock(const double* in, size_t n, double q, double* out) {
  // A lane-wise IEEE multiply is bit-identical however it is batched;
  // the plain loop lets the compiler pick the widest profitable ISA.
  for (size_t k = 0; k < n; ++k) out[k] = q * in[k];
}

}  // namespace simd
}  // namespace sssj
