// Prefix-filtering batch indexes: AP (Bayardo et al.), L2AP (Anastasiu &
// Karypis), and the paper's L2 — one implementation parameterized by a
// bounds policy, mirroring the paper's red/green pseudocode convention
// (Algorithms 2–4):
//   * red lines  (AP bounds: b1, sz1, rs1, ds1, sz2) — enabled by kAp;
//   * green lines (ℓ2 bounds: b2, rs2, l2bound)      — enabled by kL2;
//   * L2AP enables both, AP only red, L2 only green.
#ifndef SSSJ_INDEX_PREFIX_INDEX_H_
#define SSSJ_INDEX_PREFIX_INDEX_H_

#include <unordered_map>
#include <vector>

#include "index/batch_index.h"
#include "index/candidate_map.h"
#include "index/posting_list.h"
#include "index/residual_store.h"

namespace sssj {

struct ApPolicy {
  static constexpr bool kAp = true;
  static constexpr bool kL2 = false;
  static constexpr const char* kName = "AP";
};

struct L2apPolicy {
  static constexpr bool kAp = true;
  static constexpr bool kL2 = true;
  static constexpr const char* kName = "L2AP";
};

struct L2Policy {
  static constexpr bool kAp = false;
  static constexpr bool kL2 = true;
  static constexpr const char* kName = "L2";
};

template <typename Policy>
class PrefixIndex : public BatchIndex {
 public:
  // `use_simd` batches the probe loop's contribution and prefix-norm
  // products through kernels::ProductColumn and routes the verification
  // dots through kernels::SparseDot — all bit-identical to the scalar
  // expressions, so both kernel paths emit the same pairs and scores.
  explicit PrefixIndex(double theta, bool use_simd = false)
      : theta_(theta), use_simd_(use_simd) {}

  void Build(const Stream& window, const MaxVector& global_max) override;
  bool UsesGlobalMax() const override { return Policy::kAp; }
  void SelfQuery(const Stream& window, size_t pos, BatchQueryScratch* scratch,
                 std::vector<ResultPair>* pairs) const override;
  using BatchIndex::Query;
  void Query(const StreamItem& x, BatchQueryScratch* scratch,
             std::vector<ResultPair>* pairs) const override;
  void Clear() override;
  const char* name() const override { return Policy::kName; }
  size_t MemoryBytes() const override;

  // Number of posting entries currently held (tests: index-size reduction
  // vs INV is the whole point of prefix filtering).
  size_t IndexedEntries() const;

 private:
  // `limits` (one per coordinate of x) caps how much of each probed list
  // the query reads and `mhat_at` (likewise) replaces m̂ at x's
  // coordinates; both null for a query against the whole index.
  void QueryInternal(const StreamItem& x, const uint32_t* limits,
                     const double* mhat_at, BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const;
  void AddInternal(const StreamItem& x);

  double theta_;
  bool use_simd_ = false;
  std::unordered_map<DimId, BatchPostingList> lists_;
  ResidualStore residuals_;
  MaxVector m_;     // global max (dominates window + future queries); AP
  MaxVector mhat_;  // max over *indexed* coordinate values (rs1 bound)
  SelfQueryRecords self_;
};

using ApIndex = PrefixIndex<ApPolicy>;
using L2apIndex = PrefixIndex<L2apPolicy>;
using L2Index = PrefixIndex<L2Policy>;

extern template class PrefixIndex<ApPolicy>;
extern template class PrefixIndex<L2apPolicy>;
extern template class PrefixIndex<L2Policy>;

}  // namespace sssj

#endif  // SSSJ_INDEX_PREFIX_INDEX_H_
