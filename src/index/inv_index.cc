#include "index/inv_index.h"

#include "index/kernels.h"

namespace sssj {

void InvIndex::Build(const Stream& window, const MaxVector& /*unused*/) {
  self_.Clear();
  self_.offset.reserve(window.size() + 1);
  for (const StreamItem& x : window) {
    self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
    AddInternal(x);
  }
  self_.offset.push_back(static_cast<uint32_t>(self_.limit.size()));
  ++stats_.index_rebuilds;
}

void InvIndex::SelfQuery(const Stream& window, size_t pos,
                         BatchQueryScratch* scratch,
                         std::vector<ResultPair>* pairs) const {
  QueryInternal(window[pos], self_.limit.data() + self_.offset[pos], scratch,
                pairs);
}

void InvIndex::Query(const StreamItem& x, BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const {
  QueryInternal(x, nullptr, scratch, pairs);
}

void InvIndex::Clear() {
  lists_.clear();
  self_.Clear();
}

size_t InvIndex::MemoryBytes() const {
  size_t bytes = self_.MemoryBytes();
  for (const auto& [dim, list] : lists_) {
    bytes += sizeof(DimId) + list.capacity_bytes();
  }
  return bytes;
}

void InvIndex::QueryInternal(const StreamItem& x, const uint32_t* limits,
                             BatchQueryScratch* scratch,
                             std::vector<ResultPair>* pairs) const {
  CandidateMap& cands = scratch->cands;
  RunStats& stats = scratch->stats;
  cands.Reset();
  for (size_t i = 0; i < x.vec.nnz(); ++i) {
    const Coord& c = x.vec.coord(i);
    auto it = lists_.find(c.dim);
    if (it == lists_.end()) continue;
    const BatchPostingList& list = it->second;
    const size_t len = limits != nullptr ? limits[i] : list.size();
    const VectorId* ids = list.id();
    const double* vals = list.value();
    const Timestamp* tss = list.ts();
    // SIMD path: batch the contribution products over the whole column
    // (bit-identical to the per-entry multiply); the per-entry loop then
    // carries only the candidate-map work.
    const double* contrib = nullptr;
    if (use_simd_ && len >= kernels::kMinSimdRun) {
      if (scratch->contrib.size() < len) scratch->contrib.resize(len);
      kernels::ProductColumn(vals, len, c.value, scratch->contrib.data());
      contrib = scratch->contrib.data();
    }
    for (size_t k = 0; k < len; ++k) {
      ++stats.entries_traversed;
      CandidateMap::Slot* slot = cands.FindOrCreate(ids[k]);
      if (slot->score == 0.0) {
        slot->ts = tss[k];
        cands.NoteAdmitted();
        ++stats.candidates_generated;
      }
      slot->score += contrib != nullptr ? contrib[k] : c.value * vals[k];
    }
  }
  cands.ForEachLive([&](VectorId id, double score, Timestamp ts) {
    ++stats.verify_calls;
    if (score >= theta_) {
      ResultPair p;
      p.a = id;
      p.b = x.id;
      p.ta = ts;
      p.tb = x.ts;
      p.dot = score;
      p.sim = score;
      pairs->push_back(p);
      ++stats.pairs_emitted;
    }
  });
}

void InvIndex::AddInternal(const StreamItem& x) {
  for (const Coord& c : x.vec) {
    BatchPostingList& list = lists_[c.dim];
    self_.limit.push_back(static_cast<uint32_t>(list.size()));
    list.Append(x.id, c.value, 0.0, x.ts);
    ++stats_.entries_indexed;
  }
  ++stats_.vectors_processed;
}

}  // namespace sssj
