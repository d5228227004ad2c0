// Batch inverted index with no pruning (INV, §5.1). Candidate generation
// already accumulates the exact dot product, so verification is a plain
// threshold test.
#ifndef SSSJ_INDEX_INV_INDEX_H_
#define SSSJ_INDEX_INV_INDEX_H_

#include <unordered_map>
#include <vector>

#include "index/batch_index.h"
#include "index/candidate_map.h"
#include "index/posting_list.h"

namespace sssj {

class InvIndex : public BatchIndex {
 public:
  // `use_simd` batches the probe loop's contribution products through
  // kernels::ProductColumn — bit-identical output on both paths.
  explicit InvIndex(double theta, bool use_simd = false)
      : theta_(theta), use_simd_(use_simd) {}

  void Build(const Stream& window, const MaxVector& global_max) override;
  bool UsesGlobalMax() const override { return false; }
  void SelfQuery(const Stream& window, size_t pos, BatchQueryScratch* scratch,
                 std::vector<ResultPair>* pairs) const override;
  using BatchIndex::Query;
  void Query(const StreamItem& x, BatchQueryScratch* scratch,
             std::vector<ResultPair>* pairs) const override;
  void Clear() override;
  const char* name() const override { return "INV"; }
  size_t MemoryBytes() const override;

 private:
  // `limits` (one per coordinate of x) caps how much of each probed list
  // the query reads; null reads the whole list.
  void QueryInternal(const StreamItem& x, const uint32_t* limits,
                     BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const;
  void AddInternal(const StreamItem& x);

  double theta_;
  bool use_simd_;
  std::unordered_map<DimId, BatchPostingList> lists_;
  SelfQueryRecords self_;
};

}  // namespace sssj

#endif  // SSSJ_INDEX_INV_INDEX_H_
