// Shared helpers for the sssj test suite.
#ifndef SSSJ_TESTS_TEST_UTIL_H_
#define SSSJ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/result.h"
#include "core/stream_item.h"
#include "index/decayed_stream_index.h"
#include "index/inv_index.h"
#include "index/posting_list.h"
#include "index/prefix_index.h"
#include "index/residual_store.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "stream/minibatch.h"
#include "stream/streaming.h"
#include "util/random.h"

namespace sssj::testing {

// Unit-normalized vector from (dim, value) pairs.
inline SparseVector UnitVec(std::vector<Coord> coords) {
  return SparseVector::UnitFromCoords(std::move(coords));
}

// Raw (un-normalized) vector from (dim, value) pairs.
inline SparseVector RawVec(std::vector<Coord> coords) {
  return SparseVector::FromCoords(std::move(coords));
}

inline StreamItem Item(VectorId id, Timestamp ts, SparseVector v) {
  StreamItem item;
  item.id = id;
  item.ts = ts;
  item.vec = std::move(v);
  return item;
}

inline std::set<std::pair<VectorId, VectorId>> PairSet(
    const std::vector<ResultPair>& pairs) {
  std::set<std::pair<VectorId, VectorId>> out;
  for (const ResultPair& p : pairs) out.emplace(p.a, p.b);
  return out;
}

// Same pairs in the same emission order, bit for bit: ids, timestamps,
// and both similarity doubles.
inline void ExpectSamePairSequence(const std::vector<ResultPair>& got,
                                   const std::vector<ResultPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << "pair " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "pair " << i;
    EXPECT_EQ(std::memcmp(&got[i].ta, &want[i].ta, sizeof(double)), 0)
        << "pair " << i;
    EXPECT_EQ(std::memcmp(&got[i].tb, &want[i].tb, sizeof(double)), 0)
        << "pair " << i;
    EXPECT_EQ(std::memcmp(&got[i].dot, &want[i].dot, sizeof(double)), 0)
        << "pair " << i;
    EXPECT_EQ(std::memcmp(&got[i].sim, &want[i].sim, sizeof(double)), 0)
        << "pair " << i;
  }
}

// Random unit-vector stream for randomized / property tests.
struct RandomStreamSpec {
  size_t n = 200;
  DimId dims = 50;
  size_t min_nnz = 1;
  size_t max_nnz = 8;
  double max_gap = 2.0;  // uniform inter-arrival in [0, max_gap]
  uint64_t seed = 1;
};

inline Stream RandomStream(const RandomStreamSpec& spec) {
  Rng rng(spec.seed);
  Stream out;
  Timestamp now = 0.0;
  for (size_t i = 0; i < spec.n; ++i) {
    const size_t nnz =
        spec.min_nnz +
        rng.NextBelow(spec.max_nnz - spec.min_nnz + 1);
    std::vector<Coord> coords;
    for (size_t k = 0; k < nnz; ++k) {
      coords.push_back(Coord{static_cast<DimId>(rng.NextBelow(spec.dims)),
                             0.05 + rng.NextDouble()});
    }
    SparseVector v = UnitVec(std::move(coords));
    if (v.empty()) {
      --i;
      continue;
    }
    if (i > 0) now += rng.NextDouble() * spec.max_gap;
    out.push_back(Item(i, now, std::move(v)));
  }
  return out;
}

// Compares a join's output against the exact oracle with an ε band:
// every oracle pair with sim ≥ θ+ε must be reported, and every reported
// pair must have oracle sim ≥ θ−ε. This absorbs summation-order floating
// point drift on razor-edge pairs without masking real bugs.
inline void ExpectMatchesOracle(const Stream& stream,
                                const DecayParams& params,
                                const std::vector<ResultPair>& actual,
                                double eps = 1e-9) {
  CollectorSink oracle_sink;
  BruteForceStreamJoin(stream, params, &oracle_sink);
  const auto& oracle = oracle_sink.pairs();

  std::set<std::pair<VectorId, VectorId>> actual_set = PairSet(actual);
  std::set<std::pair<VectorId, VectorId>> oracle_set = PairSet(oracle);

  for (const ResultPair& p : oracle) {
    if (p.sim >= params.theta + eps) {
      EXPECT_TRUE(actual_set.count({p.a, p.b}))
          << "missing pair " << p.ToString() << " (theta=" << params.theta
          << ", lambda=" << params.lambda << ")";
    }
  }
  for (const ResultPair& p : actual) {
    auto it = oracle_set.find({p.a, p.b});
    EXPECT_TRUE(it != oracle_set.end())
        << "spurious pair " << p.ToString() << " (theta=" << params.theta
        << ", lambda=" << params.lambda << ")";
  }
  // No duplicates.
  EXPECT_EQ(actual_set.size(), actual.size()) << "duplicate pairs reported";
}

// ---- accounting oracle ----
//
// Every MemoryBytes() in the library is a running total kept at the
// mutation sites. These helpers recompute the same figure from scratch by
// walking every structure — the O(state) definition the totals must
// reproduce exactly, after every operation.

inline size_t WalkMemoryBytes(const PostingList& list) {
  size_t bytes = sizeof(PostingList) + list.capacity_bytes() +
                 list.frozen().capacity() * sizeof(FrozenBlock);
  for (const FrozenBlock& blk : list.frozen()) {
    bytes += blk.memory_bytes() - sizeof(FrozenBlock);  // payload only
  }
  return bytes;
}

// The directory slots, the chunk table, every chunk whole (its list
// objects, used or not), then what each list, visited in insertion order,
// holds beyond its object.
inline size_t WalkMemoryBytes(const PostingMap& lists) {
  size_t bytes = lists.directory_capacity() * sizeof(PostingMap::Slot) +
                 lists.chunk_table_capacity() * sizeof(void*) +
                 lists.list_capacity() * sizeof(PostingMap::Entry);
  size_t visited = 0;
  for (const auto& [dim, list] : lists) {
    bytes += WalkMemoryBytes(list) - sizeof(PostingList);
    ++visited;
  }
  EXPECT_EQ(visited, lists.size()) << "iteration skipped or repeated a list";
  return bytes;
}

inline size_t WalkMemoryBytes(const ResidualStore& store) {
  size_t bytes = 0;
  store.ForEachInOrder([&bytes](VectorId, const ResidualRecord& rec) {
    bytes += sizeof(VectorId) + sizeof(ResidualRecord) +
             rec.prefix.nnz() * sizeof(Coord);
  });
  for (const auto& [dim, ids] : store.prefix_dims()) {
    bytes += sizeof(DimId) + ids.capacity() * sizeof(VectorId);
  }
  return bytes;
}

inline size_t WalkMemoryBytes(const StreamIndex& index) {
  if (auto* ix = dynamic_cast<const StreamInvIndex*>(&index)) {
    return WalkMemoryBytes(ix->lists());
  }
  if (auto* ix = dynamic_cast<const GeneralDecayInvIndex*>(&index)) {
    return WalkMemoryBytes(ix->lists());
  }
  if (auto* ix = dynamic_cast<const StreamL2Index*>(&index)) {
    return WalkMemoryBytes(ix->residuals()) + WalkMemoryBytes(ix->lists());
  }
  if (auto* ix = dynamic_cast<const StreamL2apIndex*>(&index)) {
    return WalkMemoryBytes(ix->residuals()) + WalkMemoryBytes(ix->lists());
  }
  if (auto* ix = dynamic_cast<const GeneralDecayL2Index*>(&index)) {
    return WalkMemoryBytes(ix->residuals()) + WalkMemoryBytes(ix->lists());
  }
  ADD_FAILURE() << "no accounting walk for index " << index.name();
  return 0;
}

inline size_t WalkItemBytes(const JoinCore& core) {
  Stream live;
  core.CollectLiveItems(&live);
  size_t bytes = 0;
  for (const StreamItem& item : live) {
    bytes += sizeof(StreamItem) + item.vec.nnz() * sizeof(Coord);
  }
  return bytes;
}

// A batch index: the directory's slots, then every array, by capacity.
inline size_t WalkMemoryBytes(const BatchStorage& s) {
  size_t bytes = s.dims.slots().capacity() * sizeof(DimDirectory::Slot);
  for (const std::vector<uint32_t>* v :
       {&s.begin, &s.fill, &s.post_pos, &s.prefix_off, &s.self.offset,
        &s.self.dim, &s.self.limit}) {
    bytes += v->capacity() * sizeof(uint32_t);
  }
  for (const std::vector<double>* v :
       {&s.mhat, &s.post_value, &s.post_pn, &s.q, &s.size_weight,
        &s.prefix_sum, &s.prefix_max, &s.self.mhat}) {
    bytes += v->capacity() * sizeof(double);
  }
  bytes += s.id.capacity() * sizeof(VectorId);
  bytes += s.ts.capacity() * sizeof(Timestamp);
  bytes += s.prefix.capacity() * sizeof(Coord);
  return bytes;
}

inline size_t WalkMemoryBytes(const BatchIndex& index) {
  if (auto* ix = dynamic_cast<const InvIndex*>(&index)) {
    return WalkMemoryBytes(ix->storage());
  }
  if (auto* ix = dynamic_cast<const ApIndex*>(&index)) {
    return WalkMemoryBytes(ix->storage());
  }
  if (auto* ix = dynamic_cast<const L2apIndex*>(&index)) {
    return WalkMemoryBytes(ix->storage());
  }
  if (auto* ix = dynamic_cast<const L2Index*>(&index)) {
    return WalkMemoryBytes(ix->storage());
  }
  ADD_FAILURE() << "no accounting walk for batch index " << index.name();
  return 0;
}

// STR: the index plus the retained live items; MB: the two buffered
// windows plus the retained batch index, if a close has created it.
inline size_t WalkMemoryBytes(const JoinCore& core) {
  if (const StreamingJoin* str = core.AsStreaming()) {
    return WalkMemoryBytes(str->index()) + WalkItemBytes(core);
  }
  if (auto* mb = dynamic_cast<const MiniBatchJoin*>(&core)) {
    return WalkItemBytes(core) +
           (mb->index() == nullptr ? 0 : WalkMemoryBytes(*mb->index()));
  }
  ADD_FAILURE() << "no accounting walk for this JoinCore";
  return 0;
}

inline size_t WalkMemoryBytes(const SssjEngine& engine) {
  return WalkMemoryBytes(engine.core());
}

}  // namespace sssj::testing

#endif  // SSSJ_TESTS_TEST_UTIL_H_
