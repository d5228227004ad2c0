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
// Storage is keyed on window position, not on VectorId: a window's size
// is known when Build() starts, so a posting holds the 32-bit position of
// its item, per-item data (id, timestamp, residual) lives in arrays
// indexed by that position, and a query accumulates candidate scores in a
// dense per-position array (BatchQueryScratch). An index is built for
// one window, probed, and rebuilt for the next window in place: Build()
// starts from empty but keeps every array's capacity, so a long-lived
// index (the MiniBatch framework keeps one per join) stops allocating
// once it has seen its largest window.
//
// A batch index prunes with the *raw* dot-product threshold θ; the decay
// filter (ApplyDecay in Algorithm 1) is applied by the framework on top.
// This is sound because sim_Δt(x,y) ≤ dot(x,y).
#ifndef SSSJ_INDEX_BATCH_INDEX_H_
#define SSSJ_INDEX_BATCH_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/result.h"
#include "core/stats.h"
#include "core/stream_item.h"
#include "index/max_vector.h"

namespace sssj {

// All mutable working state a Query() call needs: the candidate
// accumulator, the per-position prefix-norm scratch (prefix-filter schemes
// only), and the counters the query accrues. Once Build() has finished,
// the index itself is immutable during queries, so concurrent Query() and
// SelfQuery() calls are safe as long as each thread brings its own
// scratch — this is what lets the MiniBatch framework fan a window close
// out across a thread pool. One scratch serves indexes of any window size.
struct BatchQueryScratch {
  // Candidate accumulator C[y], one slot per window position: 0 = not a
  // candidate, > 0 = live, kPruned = final (see index/candidate_map.h for
  // why a pruned candidate is never readmitted). All zero between
  // queries: a query zeroes exactly the slots it admitted.
  static constexpr double kPruned = -1.0;
  std::vector<double> score;
  // Positions in admission order. A position is admitted when its first
  // posting arrives with score 0 (a later zero score only follows a
  // product that underflowed, and the position is then listed again;
  // verification reads each live slot once, at its first listing).
  std::vector<uint32_t> admitted;
  std::vector<double> prefix_norms;  // ||x'_j|| per position of the query
  // A cross-query's dense dim index per coordinate (DimDirectory::Find).
  std::vector<uint32_t> dims;
  // Kernel scratch for the SIMD probe path: per-list contribution
  // products (q_i · y_value) and prefix-norm products (||x'_i|| ·
  // ||y'||), both bit-identical to the per-entry multiplies they batch.
  std::vector<double> contrib;
  std::vector<double> pnprod;
  RunStats stats;

  // Makes room for a window of `n` positions (new slots are zero).
  void FitWindow(size_t n) {
    if (score.size() < n) score.resize(n, 0.0);
  }
};

// A window's dims mapped to dense indexes 0, 1, … in first-seen order:
// a flat open-addressing table with linear probing, at most 3/4 full, a
// dim's home slot being the top bits of dim × 2^64/φ (Fibonacci hashing,
// the same idiom as PostingMap: dims are Zipfian, so masking the low bits
// would pile the frequent low dims into one run). Clear() empties the
// table in place; the capacity stays for the next window.
class DimDirectory {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // A slot: `index` is 1 + the dim's dense index, 0 = empty.
  struct Slot {
    DimId dim = 0;
    uint32_t index = 0;
  };

  uint32_t Find(DimId dim) const {
    if (slots_.empty()) return kAbsent;
    const Slot& s = slots_[Probe(dim)];
    return s.index == 0 ? kAbsent : s.index - 1;
  }

  // dim's dense index; a new dim gets the next one (== size() before).
  uint32_t FindOrAdd(DimId dim) {
    if (!slots_.empty()) {
      const Slot& s = slots_[Probe(dim)];
      if (s.index != 0) return s.index - 1;
    }
    if ((size_t{size_} + 1) * 4 > slots_.size() * 3) Grow();
    slots_[Probe(dim)] = Slot{dim, ++size_};
    return size_ - 1;
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  const std::vector<Slot>& slots() const { return slots_; }
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  static constexpr uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;  // 2^64/φ

  // The slot holding dim, or the empty slot where it would go.
  size_t Probe(DimId dim) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((uint64_t{dim} * kFibonacci) >> shift_);
    while (slots_[i].index != 0 && slots_[i].dim != dim) i = (i + 1) & mask;
    return i;
  }

  // Allocates the table (first call) or doubles it.
  void Grow();

  std::vector<Slot> slots_;  // power of two, or empty
  unsigned shift_ = 64;      // 64 − log2(slots_.size())
  uint32_t size_ = 0;
};

// What Build() records for the self-queries, flattened over the window:
// item i's coordinates own slots [offset[i], offset[i + 1]) of `dim` (the
// coordinate's dense dim index), `limit` (how many entries of that dim's
// posting list precede item i) and `mhat` (m̂ at that coordinate before
// item i; AP-family schemes only).
struct SelfQueryRecords {
  std::vector<uint32_t> offset;
  std::vector<uint32_t> dim;
  std::vector<uint32_t> limit;
  std::vector<double> mhat;

  void Clear() {
    offset.clear();
    dim.clear();
    limit.clear();
    mhat.clear();
  }
  size_t MemoryBytes() const {
    return offset.capacity() * sizeof(uint32_t) +
           dim.capacity() * sizeof(uint32_t) +
           limit.capacity() * sizeof(uint32_t) +
           mhat.capacity() * sizeof(double);
  }
};

class BatchIndex {
 public:
  virtual ~BatchIndex() = default;

  // Indexes `window` (time-ordered items) without querying it, recording
  // what each item's SelfQuery needs. Whatever the index held before is
  // replaced; array capacity is kept. The index copies what its probes
  // read, so `window` need not outlive it.
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

  // Empties the index and releases its memory.
  virtual void Clear() = 0;
  virtual const char* name() const = 0;

  // Resident bytes of the index: every array it keeps, by capacity (the
  // self-query records included). O(1). Pure virtual on purpose: a
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
