/// \file ray_tracer_simd.cc
/// The SIMD ray-packet march (DESIGN.md §14) behind Tracer::traceRaysSimd.
///
/// Rays march in lockstep through a level's packed records, one ray per
/// vector lane, one packet pass per level. The kernel is written once, in
/// packet_march.inc, as a template over a thin lane type; this file
/// compiles it twice:
///
///  - avx512::Lanes — one __m512d per row (8 lanes), __mmask8
///    predication, every crossing a masked step. Preferred whenever the
///    host has AVX-512 F/DQ/VL/BW.
///  - avx2::Lanes — one __m256d per row (4 lanes), full-width compare
///    masks consumed by blendv, plus an unmasked hot loop.
///
/// The lane type supplies the vector width, the mask representation, a
/// compile-time kHotLoop choice (each with its measured reason) and a
/// handful of thin wrappers (splat, gather, lt, maskAdd, ...); the march
/// itself — packet shape, steps, retirement — is shared.
///
/// Both instances do exactly the per-crossing work of the scalar packed
/// march — min-axis selection, one record load, one exp, the absorb/emit
/// update — with vector compares for the min-axis selection, gathers
/// against the PackedFieldView byte-offset helpers for the record loads,
/// and the vectorized polynomial exp (vexp). Lanes retire when a ray hits
/// a wall cell, extinguishes below TraceConfig::threshold, or steps out of
/// the level's `allowed` box; retired lanes refill from the pending rays
/// through a SetupQueue that precomputes per-ray DDA setups a chunk at a
/// time. A ray that leaves `allowed` inside the domain is queued, with its
/// position, transmissivity and intensity, for the next level's pass,
/// which sets it up from `pos = origin + dir * tCur` (the scalar march's
/// handoff) and starts it from that state; on the last level every exit
/// is a wall. Rays live in fixed bundle slots throughout, so the result
/// of a ray never depends on the other rays of the bundle.
///
/// Numerical contract: the DDA bookkeeping (tMax/tDelta setup, min-axis
/// tie-breaking, segment lengths, cell paths, the handoff position) on
/// every level performs the exact same IEEE operations as the scalar
/// packed march, so every ray visits the bitwise-identical cell sequence
/// with bitwise-identical segment lengths, and the two instances agree
/// bitwise with each other. The only divergence from the scalar march is
/// the polynomial exp vs libm exp on every level's segments (<= ~2 ulp
/// per segment), which accumulates multiplicatively through the
/// transmissivity — hence the documented ULP tolerance on per-ray
/// intensities (simd_march_test). That contract needs the library built
/// with -ffp-contract=off (src/core/CMakeLists.txt): otherwise GCC fuses
/// `a + b*c` into an FMA inside the FMA-enabled kernels — including
/// inlined scalar helpers such as the setup's plane coordinate — which
/// the baseline-ISA scalar march cannot do.
///
/// Runtime dispatch keeps the binary baseline-ISA. GCC will not inline
/// target-specific intrinsics into a function built without that target,
/// and does not pass a function's target attribute into lambdas, so each
/// instance is compiled inside a `#pragma GCC target` region, in its own
/// namespace, in this one translation unit. Every header is included
/// before the first region, so their inline functions stay baseline code
/// (separate -mavx512f translation units would emit AVX-512 copies of
/// them that the linker may keep for baseline callers).
/// tools/check_isa_hygiene.py checks the result on the built library.
/// RMCRT_FORCE_AVX2=1 pins an AVX-512 host to the AVX2 instance so it
/// stays testable on modern hardware.

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/packed_field.h"
#include "core/ray_tracer.h"

#if RMCRT_SIMD_X86
#include <immintrin.h>
#endif

namespace rmcrt::core {

#if RMCRT_SIMD_X86

/// The packet kernel's view of one level pass of a Tracer: the level's
/// geometry and record gather bases, whether a coarser level follows,
/// and the march constants.
struct PacketMarch {
  PacketMarch(const Tracer& t, std::size_t li, double scale)
      : level(t.m_levels[li]),
        abskg(reinterpret_cast<const double*>(
            level.packed.bytes() + PackedFieldView::kAbskgByteOffset)),
        sigma(reinterpret_cast<const double*>(
            level.packed.bytes() + PackedFieldView::kSigmaByteOffset)),
        cellType(reinterpret_cast<const int*>(
            level.packed.bytes() + PackedFieldView::kCellTypeByteOffset)),
        hasWalls(t.m_levelHasWalls[li] != 0),
        hasNext(li + 1 < t.m_levels.size()),
        threshold(t.m_cfg.threshold),
        emissivity(t.m_walls.emissivity),
        wallTerm(t.m_walls.emissivity * t.m_walls.sigmaT4OverPi),
        kappaScale(scale) {}

  const TraceLevel& level;
  const double* abskg;
  const double* sigma;
  const int* cellType;
  /// Whether the level's `allowed` box holds any wall record (else the
  /// cellType gather is skipped).
  bool hasWalls;
  /// Whether a ray leaving `allowed` inside the domain continues on a
  /// coarser level; on the last level every exit takes the wall term.
  bool hasNext;
  double threshold;
  double emissivity;
  /// Domain-wall emission factor; the scalar march multiplies the same
  /// product before the separately rounded add.
  double wallTerm;
  /// The band's scale on gathered kappa (1.0 for the gray-mean medium,
  /// bitwise neutral).
  double kappaScale;
};

namespace {

/// Infinity-safe division, identical to the scalar march's setup helper.
double safeDiv(double num, double den) {
  return den == 0.0 ? std::numeric_limits<double>::infinity() : num / den;
}

/// The rays of one level pass, addressed by bundle slot. Level 0's pass
/// starts every ray of the bundle fresh at its origin; a coarser level's
/// pass starts the rays the previous level handed off, each from the
/// state it carried out.
struct LevelRays {
  const Vector* pos;     ///< where each ray enters the level, by slot
  const Vector* dirs;    ///< bundle directions, by slot
  const double* trans;   ///< carried transmissivity; null: fresh rays (1)
  const double* sumI;    ///< carried intensity; null: fresh rays (0)
  const int* slots;      ///< the pass's slots; null: 0 .. n-1
  int n;

  int slot(int i) const { return slots != nullptr ? slots[i] : i; }
};

/// Where a pass queues the rays it hands to the next level: each ray's
/// entry position and transmissivity go into its slot of `pos` and
/// `trans`, and the slot joins `slots`. Its intensity so far waits in its
/// output slot, which it overwrites once it finishes.
struct Handoff {
  Vector* pos = nullptr;
  double* trans = nullptr;
  int* slots = nullptr;
  int n = 0;

  void push(int slot, const Vector& p, double t) {
    pos[slot] = p;
    trans[slot] = t;
    slots[n++] = slot;
  }
};

/// Per-ray Amanatides-Woo setup plus the state the ray enters the level
/// with, precomputed by SetupQueue so a lane refill is a handful of L1
/// copies instead of a chain of divisions.
struct RaySetup {
  double tMax[3];
  double tDelta[3];
  /// Steps remaining along each axis before the ray leaves `allowed`,
  /// kept as doubles (small exact integers) so the exit test is a
  /// vector compare. The scalar march's post-step bounds check
  /// `stepped < lo || stepped >= hi` is equivalent to this count going
  /// negative.
  double cnt[3];
  double trans;
  double sumI;
  /// Linear record element offset of the ray's starting cell.
  std::int64_t off;
  /// Pre-signed element stride per axis (PackedFieldView::laneStride).
  std::int64_t axStride[3];
  /// The ray's bundle slot.
  std::int64_t slot;
};

/// Performs the exact FP sequence of the scalar packed march's setup, so
/// the ray's tMax/tDelta (and therefore its whole cell path) are bitwise
/// identical to the scalar reference. Always inlined into the kernels: as
/// a call, once per ray, it cost the AVX-512 instance ~10% at 16^3.
[[gnu::always_inline]] inline void computeRaySetup(const TraceLevel& L,
                                                   const Vector& origin,
                                                   const Vector& dir,
                                                   RaySetup& rs) {
  const LevelGeom& g = L.geom;
  IntVector start = g.cellAt(origin);
  start = max(min(start, L.allowed.high() - IntVector(1)), L.allowed.low());
  for (int i = 0; i < 3; ++i) {
    const int step = dir[i] >= 0.0 ? 1 : -1;
    rs.tDelta[i] = safeDiv(g.dx[i], std::abs(dir[i]));
    const double planeCoord =
        g.physLow[i] +
        (start[i] - g.cells.low()[i] + (dir[i] >= 0.0 ? 1 : 0)) * g.dx[i];
    double tM = safeDiv(planeCoord - origin[i], dir[i]);
    if (tM < 0.0) tM = 0.0;  // float slop at the boundary
    rs.tMax[i] = tM;
    rs.cnt[i] = static_cast<double>(step > 0
                                        ? L.allowed.high()[i] - 1 - start[i]
                                        : start[i] - L.allowed.low()[i]);
    rs.axStride[i] = L.packed.laneStride(i, step);
  }
  rs.off = L.packed.offsetOf(start);
}

/// The cell a ray stepped into when it left \p allowed, rebuilt from its
/// remaining-crossing counters \p cnt (the exited axis reads -1): a ray
/// stepping +1 along an axis has `allowed.high - 1 - cnt` there, one
/// stepping -1 has `allowed.low + cnt`. The same step sign as the
/// setup's, so this is the scalar march's `cur` exactly.
inline IntVector steppedCell(const CellRange& allowed, const Vector& dir,
                             const double* cnt) {
  IntVector cur;
  for (int a = 0; a < 3; ++a) {
    const int c = static_cast<int>(cnt[a]);
    cur[a] = dir[a] >= 0.0 ? allowed.high()[a] - 1 - c : allowed.low()[a] + c;
  }
  return cur;
}

/// Chunked precompute of per-ray DDA setups. Lane refill happens inside
/// the packet kernel's retirement path, where computeRaySetup's
/// dependent divisions would stall the resumed march; batching the
/// setups a chunk ahead keeps the refill itself to plain copies out of
/// L1 and lets the divisions pipeline against the marching packet.
class SetupQueue {
 public:
  SetupQueue(const TraceLevel& level, const LevelRays& rays)
      : m_level(level), m_rays(rays) {}

  bool empty() const { return m_next >= m_rays.n; }

  /// Pops the next pending ray's setup. Only valid when !empty(). The
  /// reference stays valid until the next pop.
  const RaySetup& pop() {
    if (m_next >= m_base + m_filled) fill();
    return m_buf[m_next++ - m_base];
  }

 private:
  void fill() {
    m_base = m_next;
    const int remaining = m_rays.n - m_base;
    m_filled = remaining < kChunk ? remaining : kChunk;
    for (int i = 0; i < m_filled; ++i) {
      const int s = m_rays.slot(m_base + i);
      RaySetup& rs = m_buf[i];
      computeRaySetup(m_level, m_rays.pos[s], m_rays.dirs[s], rs);
      rs.trans = m_rays.trans != nullptr ? m_rays.trans[s] : 1.0;
      rs.sumI = m_rays.sumI != nullptr ? m_rays.sumI[s] : 0.0;
      rs.slot = s;
    }
  }

  static constexpr int kChunk = 128;
  const TraceLevel& m_level;
  LevelRays m_rays;
  int m_next = 0;
  int m_base = 0;
  int m_filled = 0;
  RaySetup m_buf[kChunk];
};

/// Constants of the vector exp (vexp in packet_march.inc).
constexpr double kExpHalfLn2 = 0.34657359027997264;
constexpr double kExpLog2E = 1.4426950408889634074;
constexpr double kExpLn2Hi = 6.93145751953125e-1;
constexpr double kExpLn2Lo = 1.42860682030941723212e-6;
/// 1/k! for k = 0..13.
constexpr double kExpCoeff[14] = {
    1.0,
    1.0,
    5.0e-1,
    1.6666666666666665741e-1,
    4.1666666666666664354e-2,
    8.3333333333333332177e-3,
    1.3888888888888889419e-3,
    1.9841269841269841253e-4,
    2.4801587301587301566e-5,
    2.7557319223985892511e-6,
    2.7557319223985890653e-7,
    2.5052108385441718775e-8,
    2.0876756987868098979e-9,
    1.6059043836821614599e-10,
};

/// AVX-512 eligibility for the 8-lane instance (the subsets it uses),
/// with RMCRT_FORCE_AVX2 as the escape hatch that keeps the AVX2 instance
/// testable on AVX-512 hardware. Read per call so tests can toggle it.
bool avx512Usable() {
  static const bool hw =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw");
  if (!hw) return false;
  const char* e = std::getenv("RMCRT_FORCE_AVX2");
  return e == nullptr || e[0] == '\0' || e[0] == '0';
}

}  // namespace

// ---------------------------------------------------------------------
// AVX2 + FMA instance.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace {
namespace avx2 {

struct Lanes {
  using D = __m256d;
  using I = __m256i;
  /// AVX2 has no mask registers: a lane mask is a full-width compare
  /// result (all-ones or all-zeros per lane) consumed by blendv.
  using M = __m256d;
  static constexpr int kWidth = 4;
  /// March through the unmasked hot loop while all lanes are live.
  /// Measured against masked steps alone on the segment microbench (one
  /// thread): ~1.6x faster at 128^3, ~1.2x at 32^3, even at 16^3.
  static constexpr bool kHotLoop = true;
};
using D = Lanes::D;
using I = Lanes::I;
using M = Lanes::M;

inline D splat(double x) { return _mm256_set1_pd(x); }
inline I splatI(std::int64_t x) { return _mm256_set1_epi64x(x); }
inline D vmin(D a, D b) { return _mm256_min_pd(a, b); }
inline D vabs(D x) { return _mm256_andnot_pd(splat(-0.0), x); }
inline D vneg(D x) { return _mm256_xor_pd(x, splat(-0.0)); }
inline D fmadd(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
inline D fnmadd(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
inline D roundNearest(D x) {
  return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
/// 2^n for integer-valued n, built directly in the exponent bits.
inline D pow2(D n) {
  const I e = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
  return _mm256_castsi256_pd(_mm256_slli_epi64(e + splatI(1023), 52));
}
/// x < lo ? 0 : v, lane-wise (ordered: a NaN x keeps v).
inline D zeroBelow(D x, double lo, D v) {
  return _mm256_andnot_pd(_mm256_cmp_pd(x, splat(lo), _CMP_LT_OQ), v);
}

inline M lt(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
inline M ne(D a, D b) { return _mm256_cmp_pd(a, b, _CMP_NEQ_UQ); }
inline M mand(M a, M b) { return _mm256_and_pd(a, b); }
inline M mor(M a, M b) { return _mm256_or_pd(a, b); }
/// a & ~b.
inline M mandnot(M a, M b) { return _mm256_andnot_pd(b, a); }
inline unsigned bits(M m) { return static_cast<unsigned>(_mm256_movemask_pd(m)); }
inline bool any(M m) { return bits(m) != 0; }
inline bool all(M m) { return bits(m) == 0xFu; }
inline M noLanes() { return _mm256_setzero_pd(); }
inline M allLanes() { return _mm256_castsi256_pd(splatI(-1)); }
inline M laneMask(int lane) {
  return _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(splatI(lane), _mm256_setr_epi64x(0, 1, 2, 3)));
}

/// m ? a : b, lane-wise.
inline D select(M m, D a, D b) { return _mm256_blendv_pd(b, a, m); }
inline I selectI(M m, I a, I b) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(b), _mm256_castsi256_pd(a), m));
}
/// m ? a OP b : src, lane-wise.
inline D maskAdd(D src, M m, D a, D b) { return select(m, a + b, src); }
inline D maskSub(D src, M m, D a, D b) { return select(m, a - b, src); }
inline D maskMul(D src, M m, D a, D b) { return select(m, a * b, src); }
/// m ? v + s : v, lane-wise.
inline I maskAddI(I v, M m, I s) {
  return v + _mm256_and_si256(s, _mm256_castpd_si256(m));
}
inline D insert(D v, M m, const double* p) {
  return select(m, _mm256_broadcast_sd(p), v);
}
inline I insertI(I v, M m, const std::int64_t* p) {
  return selectI(m, splatI(*p), v);
}

/// Masked gather of the double at byte offset `bytes` from `base`;
/// masked-off lanes read nothing.
inline D gather(const double* base, I bytes, M m) {
  return _mm256_mask_i64gather_pd(_mm256_setzero_pd(), base, bytes, m, 1);
}
/// Lanes of `m` whose record is a wall cell.
inline M wallLanes(const int* base, I bytes, M m) {
  // The epi32 gather wants a 4x32 mask: the high dword of each lane.
  const __m128i m32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      _mm256_castpd_si256(m), _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7)));
  const __m128i ct =
      _mm256_mask_i64gather_epi32(_mm_setzero_si128(), base, bytes, m32, 1);
  const __m128i wall =
      _mm_cmpeq_epi32(ct, _mm_set1_epi32(static_cast<int>(PackedCell::kWall)));
  return mand(_mm256_castsi256_pd(_mm256_cvtepi32_epi64(wall)), m);
}

inline void store(double* p, D v) { _mm256_store_pd(p, v); }
inline void storeI(std::int64_t* p, I v) {
  _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
}
/// out[idx[l]] = v[l] for the lanes of m (AVX2 has no scatter).
inline void scatter(double* out, M m, I idx, D v) {
  alignas(32) double val[4];
  alignas(32) std::int64_t at[4];
  store(val, v);
  storeI(at, idx);
  for (unsigned b = bits(m); b != 0; b &= b - 1)
    out[at[__builtin_ctz(b)]] = val[__builtin_ctz(b)];
}
inline double hsum(D v) {
  alignas(32) double l[4];
  store(l, v);
  return l[0] + l[1] + l[2] + l[3];
}

#include "core/packet_march.inc"

}  // namespace avx2
}  // namespace
#pragma GCC pop_options

// ---------------------------------------------------------------------
// AVX-512 instance. GCC 12's avx512 headers implement the all-ones-mask
// forms of _mm512_slli_epi64 / _mm512_min_pd via _mm512_undefined_pd(),
// whose `__Y = __Y` self-init trips -Wmaybe-uninitialized once the
// intrinsics inline into a loop this deep: a header-internal false
// positive, not our state.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl,avx512bw,avx2,fma")
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
namespace {
namespace avx512 {

struct Lanes {
  using D = __m512d;
  using I = __m512i;
  using M = __mmask8;
  static constexpr int kWidth = 8;
  /// k-masked commits are single instructions, so every crossing takes
  /// the masked step. The hot loop measured 1.3-2x slower at 16^3 (short
  /// rays break it every few crossings; this is the CI smoke size) though
  /// ~1.3x faster at 64^3 and ~1.7x at 128^3.
  static constexpr bool kHotLoop = false;
};
using D = Lanes::D;
using I = Lanes::I;
using M = Lanes::M;

inline D splat(double x) { return _mm512_set1_pd(x); }
inline I splatI(std::int64_t x) { return _mm512_set1_epi64(x); }
inline D vmin(D a, D b) { return _mm512_min_pd(a, b); }
inline D vabs(D x) { return _mm512_abs_pd(x); }
inline D vneg(D x) { return _mm512_xor_pd(x, splat(-0.0)); }
inline D fmadd(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
inline D fnmadd(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
inline D roundNearest(D x) {
  return _mm512_roundscale_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}
inline D pow2(D n) {
  const I e = _mm512_cvtepi32_epi64(_mm512_cvtpd_epi32(n));
  return _mm512_castsi512_pd(_mm512_slli_epi64(e + splatI(1023), 52));
}
inline D zeroBelow(D x, double lo, D v) {
  return _mm512_maskz_mov_pd(_mm512_cmp_pd_mask(x, splat(lo), _CMP_NLT_UQ), v);
}

inline M lt(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
inline M ne(D a, D b) { return _mm512_cmp_pd_mask(a, b, _CMP_NEQ_UQ); }
inline M mand(M a, M b) { return static_cast<M>(a & b); }
inline M mor(M a, M b) { return static_cast<M>(a | b); }
inline M mandnot(M a, M b) { return static_cast<M>(a & ~b); }
inline unsigned bits(M m) { return m; }
inline bool any(M m) { return m != 0; }
inline M noLanes() { return 0; }
inline M allLanes() { return 0xFF; }  // named by the (unused) hot loop
inline M laneMask(int lane) { return static_cast<M>(1u << lane); }

inline D select(M m, D a, D b) { return _mm512_mask_mov_pd(b, m, a); }
inline I selectI(M m, I a, I b) { return _mm512_mask_mov_epi64(b, m, a); }
inline D maskAdd(D src, M m, D a, D b) { return _mm512_mask_add_pd(src, m, a, b); }
inline D maskSub(D src, M m, D a, D b) { return _mm512_mask_sub_pd(src, m, a, b); }
inline D maskMul(D src, M m, D a, D b) { return _mm512_mask_mul_pd(src, m, a, b); }
inline I maskAddI(I v, M m, I s) { return _mm512_mask_add_epi64(v, m, v, s); }
inline D insert(D v, M m, const double* p) {
  return _mm512_mask_broadcastsd_pd(v, m, _mm_load_sd(p));
}
inline I insertI(I v, M m, const std::int64_t* p) {
  return _mm512_mask_broadcastq_epi64(v, m, _mm_loadu_si64(p));
}

inline D gather(const double* base, I bytes, M m) {
  return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), m, bytes, base, 1);
}
inline M wallLanes(const int* base, I bytes, M m) {
  const __m256i ct =
      _mm512_mask_i64gather_epi32(_mm256_setzero_si256(), m, bytes, base, 1);
  return _mm256_mask_cmpeq_epi32_mask(
      m, ct, _mm256_set1_epi32(static_cast<int>(PackedCell::kWall)));
}

inline void store(double* p, D v) { _mm512_store_pd(p, v); }
inline void storeI(std::int64_t* p, I v) { _mm512_store_si512(p, v); }
inline void scatter(double* out, M m, I idx, D v) {
  _mm512_mask_i64scatter_pd(out, m, idx, v, 8);
}
inline double hsum(D v) {
  alignas(64) double l[8];
  store(l, v);
  double s = 0.0;
  for (const double x : l) s += x;
  return s;
}

#include "core/packet_march.inc"

}  // namespace avx512
}  // namespace
#pragma GCC diagnostic pop
#pragma GCC pop_options

void Tracer::traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                           double kappaScale, double* out,
                           std::uint64_t& segments) const {
  assert(n > 0 && m_levels.front().packed.valid());
  const bool wide = avx512Usable();  // one instance for every pass
  // Handoff state, by bundle slot: entry position and transmissivity
  // (the intensity so far waits in out[slot]), and two slot lists that
  // alternate between the pass reading one and the pass writing the
  // other.
  std::vector<Vector> pos;
  std::vector<double> trans;
  std::vector<int> slots[2];
  if (m_levels.size() > 1) {
    const std::size_t un = static_cast<std::size_t>(n);
    pos.resize(un);
    trans.resize(un);
    slots[0].resize(un);
    slots[1].resize(un);
  }
  LevelRays rays{origins, dirs, nullptr, nullptr, nullptr, n};
  for (std::size_t li = 0; li < m_levels.size() && rays.n > 0; ++li) {
    const PacketMarch march(*this, li, kappaScale);
    Handoff next{pos.data(), trans.data(), slots[li % 2].data(), 0};
    if (wide)
      avx512::marchPackets<avx512::Lanes>(march, rays, next, out, segments);
    else
      avx2::marchPackets<avx2::Lanes>(march, rays, next, out, segments);
    rays = LevelRays{pos.data(), dirs, trans.data(), out, next.slots, next.n};
  }
}

const char* Tracer::simdIsa() {
  if (!simdSupported()) return "none";
  return avx512Usable() ? "avx512" : "avx2";
}

#else  // !RMCRT_SIMD_X86

void Tracer::traceRaysSimd(int n, const Vector* origins, const Vector* dirs,
                           double kappaScale, double* out,
                           std::uint64_t& segments) const {
  // Non-x86 build: simdSupported() is constant-false so this is
  // unreachable through the public dispatch; keep a correct fallback for
  // direct callers anyway.
  for (int i = 0; i < n; ++i)
    out[i] = traceRay(origins[i], dirs[i], 0, kappaScale, segments);
}

const char* Tracer::simdIsa() { return "none"; }

#endif  // RMCRT_SIMD_X86

}  // namespace rmcrt::core
