// The batch indexes: INV (§5.1), AP (Bayardo et al.), L2AP (Anastasiu &
// Karypis), and the paper's L2 — one implementation parameterized by a
// bounds policy, mirroring the paper's red/green pseudocode convention
// (Algorithms 2–4):
//   * red lines  (AP bounds: b1, sz1, rs1, ds1, sz2) — enabled by kAp;
//   * green lines (ℓ2 bounds: b2, rs2, l2bound)      — enabled by kL2;
//   * L2AP enables both, AP only red, L2 only green.
// INV is the degenerate case with prefix filtering off: every coordinate
// is indexed, candidate generation accumulates the exact dot product, and
// verification is a plain threshold test.
//
// Layout (see index/batch_index.h): a DimDirectory maps the window's dims
// to dense indexes d; the posting list of d is the CSR range
// [begin[d], begin[d + 1]) of three columns — window position, value,
// prefix norm ||y'|| (ℓ2 only) — in window order. Per window position
// the index keeps the item's id and timestamp and, for the prefix
// schemes, its residual: Q[y], the un-indexed prefix y' (copied into one
// flat coordinate array) and, for AP, |y|·vm_y and y'’s sum and max.
// Build() makes two passes over the window: the first splits each item,
// records its self-query limits and counts postings per dim; the second
// fills the columns.
#ifndef SSSJ_INDEX_PREFIX_INDEX_H_
#define SSSJ_INDEX_PREFIX_INDEX_H_

#include <vector>

#include "index/batch_index.h"

namespace sssj {

struct InvPolicy {
  static constexpr bool kPrefixFilter = false;
  static constexpr bool kAp = false;
  static constexpr bool kL2 = false;
  static constexpr const char* kName = "INV";
};

struct ApPolicy {
  static constexpr bool kPrefixFilter = true;
  static constexpr bool kAp = true;
  static constexpr bool kL2 = false;
  static constexpr const char* kName = "AP";
};

struct L2apPolicy {
  static constexpr bool kPrefixFilter = true;
  static constexpr bool kAp = true;
  static constexpr bool kL2 = true;
  static constexpr const char* kName = "L2AP";
};

struct L2Policy {
  static constexpr bool kPrefixFilter = true;
  static constexpr bool kAp = false;
  static constexpr bool kL2 = true;
  static constexpr const char* kName = "L2";
};

// Everything a built batch index holds. Arrays are indexed by dense dim
// (d), CSR entry (k) or window position (p); a scheme leaves the arrays
// it does not use empty.
struct BatchStorage {
  DimDirectory dims;
  std::vector<uint32_t> begin;       // d → postings [begin[d], begin[d+1])
  std::vector<uint32_t> fill;        // d → Build's running count / cursor
  std::vector<double> mhat;          // d → m̂ over the window (AP)
  std::vector<uint32_t> post_pos;    // k → window position
  std::vector<double> post_value;    // k → coordinate value
  std::vector<double> post_pn;       // k → ||y'|| before the coordinate (ℓ2)
  std::vector<VectorId> id;          // p
  std::vector<Timestamp> ts;         // p
  std::vector<double> q;             // p → Q[y] (prefix schemes)
  std::vector<uint32_t> prefix_off;  // p → y' is prefix[off[p], off[p+1])
  std::vector<Coord> prefix;         // every y', in window order
  std::vector<double> size_weight;   // p → |y|·vm_y (AP)
  std::vector<double> prefix_sum;    // p → Σ y' (AP)
  std::vector<double> prefix_max;    // p → vm_{y'} (AP)
  SelfQueryRecords self;

  // Empties every array, keeping capacity.
  void Reset();
  // Σ capacity × element size over every array, the directory included.
  size_t MemoryBytes() const;
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
  void Clear() override { s_ = BatchStorage{}; }
  const char* name() const override { return Policy::kName; }
  size_t MemoryBytes() const override { return s_.MemoryBytes(); }

  // Number of posting entries currently held (tests: index-size reduction
  // vs INV is the whole point of prefix filtering).
  size_t IndexedEntries() const { return s_.post_pos.size(); }

  // The built index, read-only (for the accounting tests).
  const BatchStorage& storage() const { return s_; }

 private:
  // `dims` and `limits` (one per coordinate of x) give the dense dim and
  // how much of its posting list the query reads, and `mhat_at` (likewise)
  // replaces m̂ at x's coordinates; all null for a query against the whole
  // index.
  void QueryInternal(const StreamItem& x, const uint32_t* dims,
                     const uint32_t* limits, const double* mhat_at,
                     BatchQueryScratch* scratch,
                     std::vector<ResultPair>* pairs) const;

  double theta_;
  bool use_simd_ = false;
  BatchStorage s_;
};

using ApIndex = PrefixIndex<ApPolicy>;
using L2apIndex = PrefixIndex<L2apPolicy>;
using L2Index = PrefixIndex<L2Policy>;

extern template class PrefixIndex<InvPolicy>;
extern template class PrefixIndex<ApPolicy>;
extern template class PrefixIndex<L2apPolicy>;
extern template class PrefixIndex<L2Policy>;

}  // namespace sssj

#endif  // SSSJ_INDEX_PREFIX_INDEX_H_
