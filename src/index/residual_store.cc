#include "index/residual_store.h"

namespace sssj {

ResidualRecord& ResidualStore::Insert(VectorId id, ResidualRecord rec) {
  auto [stored, inserted] = map_.try_emplace(id);
  if (!inserted) bytes_ -= RecordBytes(*stored);  // replaced in place
  *stored = std::move(rec);
  bytes_ += RecordBytes(*stored);
  if (track_prefix_dims_) RegisterPrefixDims(id, stored->prefix);
  return *stored;
}

void ResidualStore::ExpireOlderThan(Timestamp cutoff) {
  while (!map_.empty() && map_.front().second.ts < cutoff) {
    bytes_ -= RecordBytes(map_.front().second);
    map_.pop_front();
  }
  // prefix_dims_ entries pointing at dropped ids are cleaned lazily.
}

void ResidualStore::Clear() {
  map_.clear();
  prefix_dims_.clear();
  bytes_ = 0;
}

void ResidualStore::RegisterPrefixDims(VectorId id,
                                       const SparseVector& prefix) {
  for (const Coord& c : prefix) {
    auto [it, inserted] = prefix_dims_.try_emplace(c.dim);
    std::vector<VectorId>& ids = it->second;
    const size_t before = inserted ? 0 : PrefixDimBytes(ids);
    ids.push_back(id);
    bytes_ += PrefixDimBytes(ids) - before;
  }
}

}  // namespace sssj
