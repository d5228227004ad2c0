// Residual direct index R, the Q array, and per-vector metadata (§4, §6.2).
//
// For every (partially) indexed vector y the filtering framework needs:
//   * the un-indexed prefix y' (for the exact dot in candidate
//     verification),
//   * Q[y] = pscore — the upper bound on dot(z, y') for any z, stored at
//     index-construction time (Algorithm 2 line 15),
//   * the full-vector statistics |y|, vm_y, Σ_y used by the AP size and
//     dot-product bounds, and needed again during L2AP re-indexing.
//
// The paper implements R and Q with a linked hash-map so that entries can
// be expired in time order with amortized O(1) cost (§6.2); we do the same.
//
// For the streaming L2AP index the store also maintains a small inverted
// index over the *prefix* dimensions, so that a max-vector update in
// dimension j can locate exactly the residuals that may need re-indexing
// (§5.3 "we can keep an inverted index of R to avoid scanning every
// vector"). Entries in that inverted index are cleaned lazily.
//
// The store's byte footprint is kept as a running total, adjusted by
// every mutation below, so MemoryBytes() is a field load.
#ifndef SSSJ_INDEX_RESIDUAL_STORE_H_
#define SSSJ_INDEX_RESIDUAL_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/sparse_vector.h"
#include "core/types.h"
#include "util/linked_hash_map.h"

namespace sssj {

struct ResidualRecord {
  SparseVector prefix;  // y' — un-indexed prefix (may be empty)
  double q = 0.0;       // Q[y]
  Timestamp ts = 0.0;   // arrival time of y
  // Full-vector stats (not prefix stats):
  double vm = 0.0;   // vm_y
  double sum = 0.0;  // Σ_y
  uint32_t nnz = 0;  // |y|
};

class ResidualStore {
 public:
  // `track_prefix_dims` enables the prefix inverted index (STR-L2AP only).
  explicit ResidualStore(bool track_prefix_dims = false)
      : track_prefix_dims_(track_prefix_dims) {}

  // Inserts a record; `id`s must arrive in non-decreasing `rec.ts` order.
  // Returns the stored record.
  ResidualRecord& Insert(VectorId id, ResidualRecord rec);

  // Callers may update a found record's scalars in place; its prefix
  // changes only through ShrinkPrefix, which keeps MemoryBytes() exact.
  ResidualRecord* Find(VectorId id) { return map_.find(id); }
  const ResidualRecord* Find(VectorId id) const { return map_.find(id); }

  // Drops all records with ts < cutoff (amortized O(1) per drop).
  void ExpireOlderThan(Timestamp cutoff);

  // Iterates over the ids whose stored prefix (still) contains `dim`,
  // compacting stale entries along the way. Fn: void(VectorId,
  // ResidualRecord&). Requires track_prefix_dims.
  template <typename Fn>
  void ForEachWithPrefixDim(DimId dim, Fn&& fn) {
    auto it = prefix_dims_.find(dim);
    if (it == prefix_dims_.end()) return;
    std::vector<VectorId>& ids = it->second;
    size_t w = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      ResidualRecord* rec = map_.find(ids[i]);
      if (rec == nullptr || rec->prefix.ValueAt(dim) == 0.0) continue;  // stale
      ids[w++] = ids[i];
      fn(ids[i], *rec);
    }
    ids.resize(w);
    if (ids.empty()) {
      bytes_ -= PrefixDimBytes(ids);
      prefix_dims_.erase(it);
    }
  }

  // Truncates a stored record's prefix to its first `nnz` coordinates
  // (L2AP re-indexing moved the rest into the posting lists). Dims that
  // left the prefix stay in the prefix-dim index until
  // ForEachWithPrefixDim cleans them lazily.
  void ShrinkPrefix(ResidualRecord* rec, size_t nnz) {
    bytes_ -= (rec->prefix.nnz() - nnz) * sizeof(Coord);
    rec->prefix = rec->prefix.Prefix(nnz);
  }

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void Clear();

  // Resident bytes: per record its key, the record and its stored prefix
  // coordinates; per prefix-dim list its key and id capacity. O(1).
  size_t MemoryBytes() const { return bytes_; }

  // Iterates records in insertion (time) order. Fn: void(VectorId,
  // const ResidualRecord&). Used by checkpointing, which must preserve
  // the order for O(1) expiry after restore.
  template <typename Fn>
  void ForEachInOrder(Fn&& fn) const {
    for (const auto& [id, rec] : map_) fn(id, rec);
  }

  // The prefix-dim inverted index, read-only (for the accounting tests).
  const std::unordered_map<DimId, std::vector<VectorId>>& prefix_dims()
      const {
    return prefix_dims_;
  }

 private:
  static size_t RecordBytes(const ResidualRecord& rec) {
    return sizeof(VectorId) + sizeof(ResidualRecord) +
           rec.prefix.nnz() * sizeof(Coord);
  }
  static size_t PrefixDimBytes(const std::vector<VectorId>& ids) {
    return sizeof(DimId) + ids.capacity() * sizeof(VectorId);
  }

  void RegisterPrefixDims(VectorId id, const SparseVector& prefix);

  LinkedHashMap<VectorId, ResidualRecord> map_;
  std::unordered_map<DimId, std::vector<VectorId>> prefix_dims_;
  bool track_prefix_dims_;
  size_t bytes_ = 0;  // MemoryBytes(), maintained by every mutation
};

}  // namespace sssj

#endif  // SSSJ_INDEX_RESIDUAL_STORE_H_
