// Shared helpers for the sssj test suite.
#ifndef SSSJ_TESTS_TEST_UTIL_H_
#define SSSJ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/result.h"
#include "core/stream_item.h"
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

}  // namespace sssj::testing

#endif  // SSSJ_TESTS_TEST_UTIL_H_
