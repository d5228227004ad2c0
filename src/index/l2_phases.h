// Building blocks shared by the ℓ2 streaming indexes (Algorithms 6–8,
// green lines): kernel selection and scratch, the ℓ2 ablation switches,
// per-arrival counters, prefix norms, the remscore admission horizon, and
// the index-construction split. StreamL2Index's candidate generation and
// verification are private members (index/stream_l2_index.cc); the
// construction helpers here are also what the seed-faithful AoS reference
// in tests/aos_equivalence_test.cc runs.
#ifndef SSSJ_INDEX_L2_PHASES_H_
#define SSSJ_INDEX_L2_PHASES_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/stats.h"
#include "core/stream_item.h"
#include "index/kernels.h"
#include "index/posting_list.h"
#include "index/residual_store.h"

namespace sssj {

// Kernel selection plus per-caller scratch. With use_simd false (the
// default) every phase runs the exact scalar reference code. With it
// true, the generate scan evaluates each candidate's decay with
// kernels::DecayOne, and verification's full dot products go through
// kernels::SparseDot. Each index owns its own state.
struct L2KernelState {
  bool use_simd = false;
  // Span-sized decay column for STR-L2AP's forward scan (DecayForSpan),
  // grown on demand and reused across spans and arrivals.
  std::vector<double> decay;
  // Frozen-block decompression scratch for the tiered posting lists:
  // the generate scan thaws one cold block at a time into this buffer.
  FrozenColumns posting;

  // Fills decay[0..len) for a span and returns the buffer; nullptr on the
  // scalar path, where the caller evaluates libm std::exp per entry. No
  // span length gate on purpose: span boundaries (buffer wrap points,
  // frozen blocks) can differ between otherwise-identical runs (tiered
  // vs untiered, checkpoint-restored vs not), and the simd path's
  // per-element values must not depend on how spans batch — DecayColumn
  // and DecayOne guarantee exactly that (padded tails, see util/simd.h).
  const double* DecayForSpan(const PostingSpan& sp, Timestamp now,
                             double lambda) {
    if (!use_simd) return nullptr;
    if (decay.size() < sp.len) decay.resize(sp.len);
    kernels::DecayColumn(sp.ts, sp.len, now, lambda, decay.data());
    return decay.data();
  }
};

// Ablation switches for the three ℓ2 pruning rules. Disabling a rule never
// changes the output (each rule only skips provably-dissimilar work); it
// changes how much work is done — which is exactly what the ablation bench
// measures. All enabled by default.
struct L2IndexOptions {
  bool use_remscore_bound = true;  // admission: rs2·e^{−λΔt} ≥ θ (Alg 7 l.7)
  bool use_l2bound = true;         // early prune: C + ||x'||·||y'||·e^{−λΔt}
  bool use_ps1_bound = true;       // verification: (C + Q)·e^{−λΔt} ≥ θ
};

// Counters produced by one arrival's generate and verify phases, folded
// into the index-wide RunStats once the arrival is done.
struct L2PhaseStats {
  uint64_t entries_traversed = 0;
  uint64_t candidates_generated = 0;
  uint64_t l2_prunes = 0;
  uint64_t verify_calls = 0;
  uint64_t full_dots = 0;
  uint64_t pairs_emitted = 0;

  void MergeInto(RunStats* stats) const {
    stats->entries_traversed += entries_traversed;
    stats->candidates_generated += candidates_generated;
    stats->l2_prunes += l2_prunes;
    stats->verify_calls += verify_calls;
    stats->full_dots += full_dots;
    stats->pairs_emitted += pairs_emitted;
  }
};

// prefix_norms[i] = ||x'_i||, the norm of coordinates strictly before i.
inline void L2ComputePrefixNorms(const SparseVector& v,
                                 std::vector<double>* out) {
  const size_t n = v.nnz();
  out->assign(n, 0.0);
  double sq = 0.0;
  for (size_t i = 0; i < n; ++i) {
    (*out)[i] = std::sqrt(sq);
    sq += v.coord(i).value * v.coord(i).value;
  }
}

// ---- Remscore admission horizon ----
// The largest Δt = x.ts − y.ts at which a fresh candidate can still pass
// the remscore admission bound rs2·e^{−λΔt} ≥ θ' (θ' = θ·(1 − kBoundSlack),
// BoundAtLeast's threshold). In a time-sorted list walked newest first,
// every posting past the first one with Δt > horizon can only update a
// candidate that is already live, so the generate scan splits its walk
// there. The split is exact: the 1e-9 added in the log domain dwarfs every
// rounding error on either side of the comparison (a few ulp in the log,
// the division and the product λΔt, and ≤ 1e-12 relative in std::exp or
// kernels::DecayOne), so no posting the per-posting check would admit
// ever lies past the horizon. Never NaN: rs2 = 0 gives −∞ (nothing can be
// admitted), and λ = 0 gives ±∞ by the sign of the log-domain margin.
inline double L2AdmitHorizon(double rs2, double theta, double lambda) {
  const double margin =
      std::log(rs2 / (theta * (1.0 - kBoundSlack))) + 1e-9;
  if (lambda > 0.0) return margin / lambda;
  const double inf = std::numeric_limits<double>::infinity();
  return margin < 0.0 ? -inf : inf;
}

// ---- Index construction (Algorithm 6, green lines) ----
// The b2 bound admits a suffix of x's coordinates into the index; the
// un-indexed prefix goes to the residual store. This computes the split
// point: coordinates [first_indexed, nnz) are indexed, `q` is the pscore
// (Q[x]) frozen at the split. first_indexed == nnz means x is never
// indexed (its norm cannot reach θ — only possible for non-unit input).
struct L2IndexSplit {
  size_t first_indexed = 0;
  double q = 0.0;
};

inline L2IndexSplit L2ComputeIndexSplit(const SparseVector& v, double theta) {
  const size_t n = v.nnz();
  double bt = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pscore = std::sqrt(bt);  // b2 before this coordinate
    bt += v.coord(i).value * v.coord(i).value;
    if (BoundAtLeast(std::sqrt(bt), theta)) return L2IndexSplit{i, pscore};
  }
  return L2IndexSplit{n, 0.0};
}

// Builds x's residual record for the given split (callers Insert it into
// their ResidualStore). Only valid when split.first_indexed < v.nnz().
inline ResidualRecord L2MakeResidualRecord(const StreamItem& x,
                                           const L2IndexSplit& split) {
  ResidualRecord rec;
  rec.prefix = x.vec.Prefix(split.first_indexed);
  rec.q = split.q;
  rec.ts = x.ts;
  rec.vm = x.vec.max_value();
  rec.sum = x.vec.sum();
  rec.nnz = static_cast<uint32_t>(x.vec.nnz());
  return rec;
}

}  // namespace sssj

#endif  // SSSJ_INDEX_L2_PHASES_H_
