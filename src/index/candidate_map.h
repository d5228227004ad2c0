// Accumulator array C[ι(y)] used during candidate generation (Algorithms 3
// and 7). Open-addressing hash map with generation stamps so that Reset()
// is O(1) and no memory churn happens per query.
//
// Semantics required for correctness (see DESIGN.md §4):
//  * score 0            — fresh slot: not yet a candidate.
//  * score > 0          — live candidate (coordinate values are strictly
//                         positive, so any accumulation is > 0).
//  * score = kPruned    — final: the candidate was rejected by the
//                         remscore admission bound or killed by the
//                         l2bound check. A pruned candidate must never be
//                         readmitted: readmission would restart
//                         accumulation from zero, undercount the indexed
//                         dot product, and cause false negatives. The
//                         l2bound proof (Cauchy–Schwarz) shows a pruned
//                         pair is definitively dissimilar, and a remscore
//                         rejection can never turn into an admission later
//                         in the same scan (the remaining norm only shrinks
//                         while the candidate's decay is fixed), so
//                         dropping either outright is safe.
//
// Slots are keyed on `id & mask`, not on a mixing hash. Engines assign
// ids consecutively, and the candidates of one arrival (a live STR
// horizon, an MB window) form a contiguous id range, so they fill a
// nearly collision-free, contiguous run of slots that stays cache-local.
// Linear probing keeps the map correct for any ids; only its speed
// depends on that locality. The table is allocated on the first
// FindOrCreate, so constructing an index that never probes costs nothing.
#ifndef SSSJ_INDEX_CANDIDATE_MAP_H_
#define SSSJ_INDEX_CANDIDATE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace sssj {

class CandidateMap {
 public:
  static constexpr double kPruned = -1.0;

  struct Slot {
    VectorId id = kInvalidVectorId;
    double score = 0.0;
    Timestamp ts = 0.0;  // candidate's arrival time (filled on admission)
    // Candidate's e^{−λΔt}, cached on first touch by the STR-L2 scan so
    // later postings of the same candidate reuse it.
    double decay = 0.0;
    uint32_t generation = 0;
  };

  explicit CandidateMap(size_t initial_capacity = 1024);

  // Invalidates all slots in O(1).
  void Reset();

  // Returns the slot for `id`, creating a fresh zero slot on first access
  // in this generation. Never returns nullptr; grows as needed.
  Slot* FindOrCreate(VectorId id) {
    if (touched_.size() * 4 >= slots_.size() * 3) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = id & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.generation != generation_) {
        s = Slot{id, 0.0, 0.0, 0.0, generation_};
        touched_.push_back(static_cast<uint32_t>(i));
        return &s;
      }
      if (s.id == id) return &s;
    }
  }

  // Number of distinct ids admitted (score ever made positive) since Reset.
  size_t admitted() const { return admitted_; }
  void NoteAdmitted() { ++admitted_; }

  // Iterates over live candidates (score > 0) of the current generation,
  // in first-touch order.
  template <typename Fn>  // Fn(VectorId, double score, Timestamp ts)
  void ForEachLive(Fn&& fn) const {
    for (uint32_t idx : touched_) {
      const Slot& s = slots_[idx];
      if (s.generation == generation_ && s.score > 0.0) {
        fn(s.id, s.score, s.ts);
      }
    }
  }

  size_t touched_count() const { return touched_.size(); }

 private:
  friend class CandidateMapPeer;  // tests: fast-forward to the stamp wrap

  // Allocates the table (first call) or doubles it, re-placing the current
  // generation's slots in first-touch order.
  void Grow();

  size_t initial_capacity_;        // power of two
  std::vector<Slot> slots_;        // empty until the first FindOrCreate
  std::vector<uint32_t> touched_;  // slot indices used in this generation
  uint32_t generation_ = 1;
  size_t admitted_ = 0;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_CANDIDATE_MAP_H_
