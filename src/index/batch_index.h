// Abstract interface for the batch (static apss) indexing schemes of §4.
// These are the building blocks the MiniBatch framework composes; the
// three primitives map onto the paper's:
//   IndConstr-IDX → Build() + SelfQuery() per window item (Construct())
//   CandGen-IDX + CandVer-IDX → Query()
//
// The paper's IndConstr interleaves the two halves: item i queries the
// index over items 0..i−1, then is added to it. Build() does all the adds
// first and records, per item, what that item's query saw — for each of
// its coordinates, how long the posting list was before the item was
// added (lists grow in window order, so the entries of earlier window
// positions are exactly that prefix), plus, for AP-family bounds, the m̂
// values at its coordinates. SelfQuery(i) then replays item i's query
// against exactly those entries, in the same order, so its pairs and
// counters are bit-identical to the interleaved loop's. The restriction
// keys on window position, never on VectorId, so it holds for any ids.
// Self-queries are const and independent: the MiniBatch framework fans
// them out together with the cross-window queries.
//
// A batch index prunes with the *raw* dot-product threshold θ; the decay
// filter (ApplyDecay in Algorithm 1) is applied by the framework on top.
// This is sound because sim_Δt(x,y) ≤ dot(x,y).
#ifndef SSSJ_INDEX_BATCH_INDEX_H_
#define SSSJ_INDEX_BATCH_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/candidate_map.h"
#include "index/max_vector.h"

namespace sssj {

// All mutable working state a Query() call needs: the candidate
// accumulator, the per-position prefix-norm scratch (prefix-filter schemes
// only), and the counters the query accrues. Once Build() has finished,
// the index itself is immutable during queries, so concurrent Query() and
// SelfQuery() calls are safe as long as each thread brings its own
// scratch — this is what lets the MiniBatch framework fan a window close
// out across a thread pool.
struct BatchQueryScratch {
  CandidateMap cands;
  std::vector<double> prefix_norms;  // ||x'_j|| per position of the query
  // Kernel scratch for the SIMD probe path: per-list contribution
  // products (q_i · y_value) and prefix-norm products (||x'_i|| ·
  // ||y'||), both bit-identical to the per-entry multiplies they batch.
  std::vector<double> contrib;
  std::vector<double> pnprod;
  RunStats stats;
};

// What Build() records for the self-queries, flattened over the window:
// item i's coordinates own slots [offset[i], offset[i + 1]) of `limit`
// (how many entries of that coordinate's posting list precede item i) and
// of `mhat` (m̂ at that coordinate before item i; AP-family schemes only).
struct SelfQueryRecords {
  std::vector<uint32_t> offset;
  std::vector<uint32_t> limit;
  std::vector<double> mhat;

  void Clear() {
    offset.clear();
    limit.clear();
    mhat.clear();
  }
  size_t MemoryBytes() const {
    return offset.capacity() * sizeof(uint32_t) +
           limit.capacity() * sizeof(uint32_t) +
           mhat.capacity() * sizeof(double);
  }
};

class BatchIndex {
 public:
  virtual ~BatchIndex() = default;

  // Indexes `window` (time-ordered items) without querying it, recording
  // what each item's SelfQuery needs.
  //
  // `global_max` must dominate, coordinate-wise, every vector in `window`
  // AND every vector later passed to Query() — this is the §6.1 requirement
  // that makes AP-style prefix filtering sound across mini-batch windows.
  // Only indexes whose UsesGlobalMax() is true read it; the others accept
  // an empty MaxVector.
  virtual void Build(const Stream& window, const MaxVector& global_max) = 0;

  // True when Build() reads `global_max` (the AP bounds). Lets the caller
  // skip assembling the two-window max vector for the other schemes.
  virtual bool UsesGlobalMax() const = 0;

  // Appends every pair (window[j], window[pos]) with j < pos and
  // dot >= theta, exactly as the interleaved IndConstr loop reported it
  // when it reached `pos`. `window` must be the stream passed to the last
  // Build(). Same threading contract as Query().
  virtual void SelfQuery(const Stream& window, size_t pos,
                         BatchQueryScratch* scratch,
                         std::vector<ResultPair>* pairs) const = 0;

  // Build() plus every SelfQuery in window order: appends every
  // intra-window pair with dot >= theta to `pairs` (dot == sim fields hold
  // the raw dot; the caller applies decay), folding the query counters
  // into stats().
  void Construct(const Stream& window, const MaxVector& global_max,
                 std::vector<ResultPair>* pairs) {
    Build(window, global_max);
    scratch_.stats = RunStats{};
    for (size_t pos = 0; pos < window.size(); ++pos) {
      SelfQuery(window, pos, &scratch_, pairs);
    }
    stats_ += scratch_.stats;
  }

  // Appends every pair (y in index, x) with dot >= theta. Does not mutate
  // the index: all working state lives in *scratch and counters accrue
  // into scratch->stats. After Build() returns, concurrent calls from
  // different threads with distinct scratches are safe.
  virtual void Query(const StreamItem& x, BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const = 0;

  // Single-threaded convenience: same contract, using an internal scratch
  // and folding its counters into stats().
  void Query(const StreamItem& x, std::vector<ResultPair>* pairs) {
    scratch_.stats = RunStats{};
    Query(x, &scratch_, pairs);
    stats_ += scratch_.stats;
  }

  virtual void Clear() = 0;
  virtual const char* name() const = 0;

  // Approximate resident bytes of the built index (posting lists plus any
  // per-vector side structures, the self-query records included). The MB
  // framework samples this at window
  // close, where the per-window index peaks. Pure virtual on purpose: a
  // defaulted `return 0` is a silent-zero trap — an index that forgets to
  // implement it ships a lying mem(MB) column (it has happened).
  virtual size_t MemoryBytes() const = 0;

  RunStats& stats() { return stats_; }
  const RunStats& stats() const { return stats_; }

 protected:
  RunStats stats_;
  BatchQueryScratch scratch_;  // backs the single-threaded Query overload
};

}  // namespace sssj

#endif  // SSSJ_INDEX_BATCH_INDEX_H_
