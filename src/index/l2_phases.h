// Phase decomposition of STR-L2 arrival processing (Algorithms 6–8, green
// lines). StreamL2Index originally implemented candidate generation,
// verification, and index construction as one monolithic ProcessArrival;
// the phases live here as free function templates so that the sequential
// index and the sharded parallel index (sharded_stream_index.h) execute
// the *same* code, bound check for bound check.
//
// The templates are parameterized over three policy hooks:
//   ListLookup    PostingList* (DimId)      — where posting lists live
//                                             (one map, or dim-sharded maps)
//   OwnsCandidate bool (VectorId)           — which candidates this caller
//                                             accumulates (always-true for
//                                             the sequential index; id-hash
//                                             partition for a shard worker)
//   OnExpired     void (PostingList&, size_t n) — what to do when the
//                                             backward scan hits the first
//                                             expired entry (truncate
//                                             eagerly, or defer so the scan
//                                             stays read-only for
//                                             concurrent workers)
//
// Correctness of the candidate partition: every pruning decision in the L2
// scheme (remscore admission, l2bound early prune, ps1 verification) reads
// only the query vector, the candidate's own accumulator slot, and the
// candidate's posting entries — never another candidate's state. A worker
// that scans all lists but accumulates only its own candidates therefore
// reproduces the sequential per-candidate computation exactly, including
// floating-point accumulation order, which is what makes the sharded
// engine's output deterministic and identical to the sequential one.
// (Per-dim partitioning of the *bound checks* would not be sound: a shard
// seeing only its own dimensions would under-estimate the partial dot
// product and could prune a globally similar pair.)
#ifndef SSSJ_INDEX_L2_PHASES_H_
#define SSSJ_INDEX_L2_PHASES_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/result.h"
#include "core/similarity.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/candidate_map.h"
#include "index/kernels.h"
#include "index/posting_list.h"
#include "index/residual_store.h"

namespace sssj {

// Kernel selection plus per-caller scratch. With use_simd false (the
// default) every phase runs the exact scalar reference code. With it
// true, the generate scan evaluates each candidate's decay with
// kernels::DecayOne, and verification's full dot products go through
// kernels::SparseDot. Each concurrent caller (the sequential index, or
// one shard worker) owns its own state.
struct L2KernelState {
  bool use_simd = false;
  // Span-sized decay column for STR-L2AP's forward scan (DecayForSpan),
  // grown on demand and reused across spans and arrivals.
  std::vector<double> decay;
  // Frozen-block decompression scratch for the tiered posting lists:
  // the generate scan thaws one cold block at a time into this buffer.
  // Per caller (sequential index / shard worker), so concurrent workers
  // never share decode state even when reading the same frozen block.
  FrozenColumns posting;

  // Fills decay[0..len) for a span and returns the buffer; nullptr on the
  // scalar path, where the caller evaluates libm std::exp per entry. No
  // span length gate on purpose: span boundaries (buffer wrap points)
  // can differ between otherwise-identical runs (eager vs deferred
  // expiry), and the simd path's per-element values must not depend on
  // how spans batch — DecayColumn and DecayOne guarantee exactly that
  // (padded tails, see util/simd.h).
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

// Counters produced by one phase invocation. Workers keep a private copy
// and the coordinator folds them into the index-wide RunStats, so the
// merged numbers match a sequential run field for field.
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

// ---- Phase 1: candidate generation (Algorithm 7, green lines) ----
// Scans x's dimensions in reverse coordinate order. Lists are time-sorted,
// so the expired run at the front of each list is located by one binary
// search on the `ts` column and reported to `on_expired`; the live suffix
// is then walked newest → oldest over raw per-column pointers,
// accumulating dot-product contributions into `cands` for every candidate
// accepted by `owns`. Each posting costs one accumulator probe: a final
// (pruned) slot is skipped before any other work, and the candidate's
// decay is evaluated once, on first touch, and cached in its slot (every
// posting of a candidate carries the candidate's own ts, so the cached
// value is the one a per-posting evaluation would produce, bit for bit).
// The `id` column is read densely; `ts`, `value` and `prefix_norm` are
// only touched for owned, unpruned candidates. The traversal visits live
// entries in exactly the order of the original per-entry scan, so
// per-candidate floating-point accumulation — and with it the sharded
// determinism contract — is unchanged.
template <typename ListLookup, typename OwnsCandidate, typename OnExpired>
void L2GenerateCandidates(const StreamItem& x, const DecayParams& params,
                          const L2IndexOptions& options,
                          const std::vector<double>& prefix_norms,
                          Timestamp cutoff, ListLookup&& lookup,
                          OwnsCandidate&& owns, OnExpired&& on_expired,
                          L2KernelState* kernel, CandidateMap* cands,
                          L2PhaseStats* stats) {
  const SparseVector& v = x.vec;
  const size_t n = v.nnz();
  double rst = v.norm() * v.norm();
  // Frozen-block decode scratch: the kernel state's buffer when the
  // caller has one, else a function-local fallback (which allocates only
  // if a scan actually reaches a frozen block).
  FrozenColumns local_scratch;
  FrozenColumns* posting_scratch =
      kernel != nullptr ? &kernel->posting : &local_scratch;
  for (size_t i = n; i-- > 0;) {  // reverse coordinate order
    const Coord& c = v.coord(i);
    const double rs2 = std::sqrt(std::max(rst, 0.0));
    PostingList* list = lookup(c.dim);
    if (list != nullptr && !list->empty()) {
      const size_t expired = list->LowerBoundTs(cutoff);
      const size_t live = list->size() - expired;
      if (expired > 0) on_expired(*list, expired);
      // A truncating on_expired leaves the live run at [0, live); a
      // deferring one leaves it at [expired, size). Either way it is the
      // last `live` entries, and the walk starts only now because
      // truncation may rebuild the storage. The block-cursor walk hands
      // out the hot tail's raw segments first, then decompresses cold
      // frozen blocks one at a time into the caller's scratch — the
      // entry visit order (and so per-candidate FP accumulation) is
      // identical to the untiered two-segment scan.
      const bool kernel_exp = kernel != nullptr && kernel->use_simd;
      list->ForSpansNewestFirst(
          list->size() - live, list->size(), posting_scratch,
          [&](const PostingSpan& sp) {
        for (size_t k = sp.len; k-- > 0;) {  // newest entry first
          const VectorId eid = sp.id[k];
          if (!owns(eid)) continue;
          ++stats->entries_traversed;
          CandidateMap::Slot* slot = cands->FindOrCreate(eid);
          if (slot->score < 0.0) continue;  // pruned: final
          if (slot->score == 0.0) {         // first touch
            // SIMD path: DecayOne, bit-identical to a DecayColumn value.
            // Scalar path: libm std::exp, the bit-exact reference.
            slot->decay =
                kernel_exp ? kernels::DecayOne(sp.ts[k], x.ts, params.lambda)
                           : std::exp(-params.lambda * (x.ts - sp.ts[k]));
            // remscore = rs2 · e^{−λΔt} (line 7, AP part disabled). rs2
            // never grows along the reverse-coordinate scan and the decay
            // is fixed per candidate, so a rejection is final.
            if (options.use_remscore_bound &&
                !BoundAtLeast(rs2 * slot->decay, params.theta)) {
              slot->score = CandidateMap::kPruned;
              continue;
            }
            slot->ts = sp.ts[k];
            cands->NoteAdmitted();
            ++stats->candidates_generated;
          }
          slot->score += c.value * sp.value[k];
          if (options.use_l2bound) {
            const double l2bound =
                slot->score +
                prefix_norms[i] * sp.prefix_norm[k] * slot->decay;
            if (!BoundAtLeast(l2bound, params.theta)) {
              slot->score = CandidateMap::kPruned;
              ++stats->l2_prunes;
            }
          }
        }
      });
    }
    rst -= c.value * c.value;
  }
}

// ---- Phase 2: candidate verification (Algorithm 8, green lines) ----
// Emits every verified pair through `emit` in the (deterministic) order
// candidates were first touched during generation.
template <typename EmitFn>
void L2VerifyCandidates(const StreamItem& x, const DecayParams& params,
                        const L2IndexOptions& options,
                        const CandidateMap& cands,
                        const ResidualStore& residuals,
                        const L2KernelState* kernel, L2PhaseStats* stats,
                        EmitFn&& emit) {
  const bool use_simd = kernel != nullptr && kernel->use_simd;
  cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats->verify_calls;
    const ResidualRecord* rec = residuals.Find(id);
    if (rec == nullptr) return;  // defensive: record outlives its postings
    const double decay = std::exp(-params.lambda * (x.ts - ts));
    if (options.use_ps1_bound) {
      const double ps1 = (score + rec->q) * decay;
      if (!BoundAtLeast(ps1, params.theta)) return;
    }
    ++stats->full_dots;
    // SparseDot is bit-identical to x.vec.Dot on both kernel paths; the
    // SIMD variant only accelerates the merge cursors.
    const double s = score + kernels::SparseDot(x.vec, rec->prefix, use_simd);
    const double sim = s * decay;
    if (sim >= params.theta) {
      ResultPair p;
      p.a = id;
      p.b = x.id;
      p.ta = ts;
      p.tb = x.ts;
      p.dot = s;
      p.sim = sim;
      p.Canonicalize();
      emit(p);
      ++stats->pairs_emitted;
    }
  });
}

// ---- Phase 3: index construction (Algorithm 6, green lines) ----
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
