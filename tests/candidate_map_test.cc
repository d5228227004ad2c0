#include "index/candidate_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "util/random.h"

namespace sssj {

class CandidateMapPeer {
 public:
  static void SetGeneration(CandidateMap* m, uint32_t g) {
    m->generation_ = g;
  }
};

namespace {

TEST(CandidateMapTest, FreshSlotIsZero) {
  CandidateMap m;
  m.Reset();
  CandidateMap::Slot* s = m.FindOrCreate(42);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->score, 0.0);
  EXPECT_EQ(s->id, 42u);
}

TEST(CandidateMapTest, AccumulationPersistsWithinGeneration) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score += 0.25;
  m.FindOrCreate(1)->score += 0.5;
  EXPECT_DOUBLE_EQ(m.FindOrCreate(1)->score, 0.75);
}

TEST(CandidateMapTest, ResetInvalidatesAllSlots) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score = 1.0;
  m.FindOrCreate(2)->score = 2.0;
  m.Reset();
  EXPECT_EQ(m.FindOrCreate(1)->score, 0.0);
  EXPECT_EQ(m.FindOrCreate(2)->score, 0.0);
}

TEST(CandidateMapTest, PrunedSentinelExcludedFromLiveIteration) {
  CandidateMap m;
  m.Reset();
  m.FindOrCreate(1)->score = 0.5;
  m.FindOrCreate(2)->score = CandidateMap::kPruned;
  m.FindOrCreate(3)->score = 0.7;
  std::map<VectorId, double> seen;
  m.ForEachLive([&](VectorId id, double score, Timestamp) {
    seen[id] = score;
  });
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[1], 0.5);
  EXPECT_DOUBLE_EQ(seen[3], 0.7);
}

TEST(CandidateMapTest, TimestampCarriedThrough) {
  CandidateMap m;
  m.Reset();
  CandidateMap::Slot* s = m.FindOrCreate(9);
  s->ts = 123.5;
  s->score = 1.0;
  m.ForEachLive([&](VectorId id, double, Timestamp ts) {
    EXPECT_EQ(id, 9u);
    EXPECT_DOUBLE_EQ(ts, 123.5);
  });
}

TEST(CandidateMapTest, GrowsBeyondInitialCapacity) {
  CandidateMap m(16);
  m.Reset();
  for (VectorId id = 0; id < 10000; ++id) {
    m.FindOrCreate(id)->score = static_cast<double>(id) + 1.0;
  }
  // All still retrievable after growth.
  for (VectorId id = 0; id < 10000; ++id) {
    ASSERT_DOUBLE_EQ(m.FindOrCreate(id)->score, static_cast<double>(id) + 1.0);
  }
  size_t live = 0;
  m.ForEachLive([&](VectorId, double, Timestamp) { ++live; });
  EXPECT_EQ(live, 10000u);
}

TEST(CandidateMapTest, AdmittedCounter) {
  CandidateMap m;
  m.Reset();
  m.NoteAdmitted();
  m.NoteAdmitted();
  EXPECT_EQ(m.admitted(), 2u);
  m.Reset();
  EXPECT_EQ(m.admitted(), 0u);
}

TEST(CandidateMapTest, ManyGenerationsStayIsolated) {
  CandidateMap m(32);
  Rng rng(5);
  for (int gen = 0; gen < 500; ++gen) {
    m.Reset();
    std::map<VectorId, double> oracle;
    const int k = 1 + static_cast<int>(rng.NextBelow(50));
    for (int i = 0; i < k; ++i) {
      const VectorId id = rng.NextBelow(1000);
      const double add = rng.NextDouble();
      m.FindOrCreate(id)->score += add;
      oracle[id] += add;
    }
    std::map<VectorId, double> got;
    m.ForEachLive(
        [&](VectorId id, double score, Timestamp) { got[id] = score; });
    ASSERT_EQ(got.size(), oracle.size());
    for (const auto& [id, score] : oracle) {
      ASSERT_NEAR(got[id], score, 1e-12);
    }
  }
}

// Drives one generation over `ids` (repeats included) and checks the map
// against a std::unordered_map + first-touch vector reference: every
// probe lands on the slot holding that id's state, a fresh id gets a zero
// slot, pruned slots stay pruned, and ForEachLive walks the live ids in
// first-touch order.
void RunGenerationAgainstReference(CandidateMap* m,
                                   const std::vector<VectorId>& ids,
                                   Rng* rng) {
  m->Reset();
  std::unordered_map<VectorId, double> score;
  std::vector<VectorId> order;
  for (VectorId id : ids) {
    CandidateMap::Slot* s = m->FindOrCreate(id);
    ASSERT_EQ(s->id, id);
    const auto [it, fresh] = score.try_emplace(id, 0.0);
    if (fresh) order.push_back(id);
    ASSERT_EQ(s->score, it->second) << "id " << id;
    ASSERT_EQ(m->touched_count(), order.size());
    if (s->score < 0.0) continue;
    if (rng->NextBelow(8) == 0) {
      s->score = it->second = CandidateMap::kPruned;
    } else {
      const double add = static_cast<double>(1 + rng->NextBelow(4));
      s->score += add;
      it->second += add;
      s->ts = static_cast<Timestamp>(id % 1000);
    }
  }
  // A repeated probe still finds the same state, also after any growth.
  for (VectorId id : order) {
    const CandidateMap::Slot* s = m->FindOrCreate(id);
    ASSERT_EQ(s->id, id);
    ASSERT_EQ(s->score, score[id]) << "id " << id;
  }
  ASSERT_EQ(m->touched_count(), order.size());
  std::vector<VectorId> expected;
  for (VectorId id : order) {
    if (score[id] > 0.0) expected.push_back(id);
  }
  std::vector<VectorId> got;
  m->ForEachLive([&](VectorId id, double s, Timestamp ts) {
    got.push_back(id);
    EXPECT_EQ(s, score[id]) << "id " << id;
    EXPECT_EQ(ts, static_cast<Timestamp>(id % 1000)) << "id " << id;
  });
  EXPECT_EQ(got, expected);
}

// Draws `n` ids (with repeats) from `pool`.
std::vector<VectorId> Draw(const std::vector<VectorId>& pool, size_t n,
                           Rng* rng) {
  std::vector<VectorId> ids(n);
  for (VectorId& id : ids) id = pool[rng->NextBelow(pool.size())];
  return ids;
}

// Slots are keyed on id & mask, so ids sharing their low bits all land on
// one home slot. Linear probing must keep such ids — and arbitrary 64-bit
// ids — correct across growth and resets; only speed may suffer.
TEST(CandidateMapTest, AdversarialIdsMatchReference) {
  Rng rng(17);
  std::vector<std::vector<VectorId>> pools(4);
  for (VectorId k = 0; k < 400; ++k) {
    pools[0].push_back(k * 1024);               // multiples of the table size
    pools[1].push_back(k << 32);                // colliding after any growth
    pools[2].push_back(rng.NextU64());          // random 64-bit ids
    pools[3].push_back((VectorId{1} << 40) + k);  // consecutive, high base
  }
  for (const std::vector<VectorId>& pool : pools) {
    CandidateMap m(16);  // small start: the early generations grow
    for (int gen = 0; gen < 40; ++gen) {
      const size_t n = 1 + rng.NextBelow(2 * pool.size());
      RunGenerationAgainstReference(&m, Draw(pool, n, &rng), &rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// When the 32-bit generation stamp wraps back to 1, slots stamped in an
// early generation must not come back to life. Two colliding clusters of
// multiples of the table size keep the early slots untouched until the
// wrap, when the early generation's stamp is current again.
TEST(CandidateMapTest, GenerationWrapDropsStaleSlots) {
  constexpr VectorId kTable = 4096;  // no growth below 3072 ids
  Rng rng(23);
  std::vector<VectorId> early, late;
  for (VectorId k = 0; k < 100; ++k) {
    early.push_back(k * kTable);        // cluster from slot 0
    late.push_back(2000 + k * kTable);  // cluster from slot 2000
  }
  CandidateMap m(kTable);
  CandidateMapPeer::SetGeneration(&m, 1);
  RunGenerationAgainstReference(&m, Draw(early, 300, &rng), &rng);  // gen 2
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  CandidateMapPeer::SetGeneration(&m, UINT32_MAX - 2);
  // Generations UINT32_MAX - 1, UINT32_MAX, then 1, 2, 3 after the wrap.
  const std::vector<VectorId>* pools[] = {&late, &late, &late, &early,
                                          &early};
  for (const std::vector<VectorId>* pool : pools) {
    RunGenerationAgainstReference(&m, Draw(*pool, 300, &rng), &rng);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
}

}  // namespace
}  // namespace sssj
