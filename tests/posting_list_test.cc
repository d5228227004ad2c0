#include "index/posting_list.h"

#include <gtest/gtest.h>

#include <vector>

namespace sssj {
namespace {

PostingEntry E(VectorId id, Timestamp ts, double val = 1.0) {
  return PostingEntry{id, val, 0.0, ts};
}

TEST(PostingListTest, AppendKeepsOrder) {
  PostingList list;
  list.Append(E(1, 1.0));
  list.Append(E(2, 2.0));
  list.Append(E(3, 3.0));
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.id(0), 1u);
  EXPECT_EQ(list.id(2), 3u);
}

TEST(PostingListTest, TruncateFrontDropsOldest) {
  PostingList list;
  for (int i = 0; i < 10; ++i) list.Append(E(i, i));
  EXPECT_EQ(list.TruncateFront(4), 4u);
  ASSERT_EQ(list.size(), 6u);
  EXPECT_EQ(list.id(0), 4u);
}

TEST(PostingListTest, CompactExpiredPreservesOrderOfSurvivors) {
  PostingList list;
  // Out-of-order timestamps, as after L2AP re-indexing.
  list.Append(E(1, 10.0));
  list.Append(E(2, 3.0));   // expired
  list.Append(E(3, 12.0));
  list.Append(E(4, 1.0));   // expired
  list.Append(E(5, 11.0));
  EXPECT_EQ(list.CompactExpired(5.0), 2u);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.id(0), 1u);
  EXPECT_EQ(list.id(1), 3u);
  EXPECT_EQ(list.id(2), 5u);
  // All columns move together.
  EXPECT_DOUBLE_EQ(list.ts(0), 10.0);
  EXPECT_DOUBLE_EQ(list.ts(1), 12.0);
  EXPECT_DOUBLE_EQ(list.ts(2), 11.0);
}

TEST(PostingListTest, CompactExpiredNoopWhenAllLive) {
  PostingList list;
  for (int i = 0; i < 5; ++i) list.Append(E(i, 100.0 + i));
  EXPECT_EQ(list.CompactExpired(50.0), 0u);
  EXPECT_EQ(list.size(), 5u);
}

TEST(PostingListTest, CompactExpiredCanEmpty) {
  PostingList list;
  for (int i = 0; i < 5; ++i) list.Append(E(i, i));
  EXPECT_EQ(list.CompactExpired(100.0), 5u);
  EXPECT_TRUE(list.empty());
}

TEST(PostingListTest, BoundaryTimestampIsKept) {
  // Entries with ts == cutoff are within the horizon (the paper prunes
  // strictly-older items: Δt > τ).
  PostingList list;
  list.Append(E(1, 5.0));
  EXPECT_EQ(list.CompactExpired(5.0), 0u);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.LowerBoundTs(5.0), 0u);
}

TEST(PostingListTest, EntriesCarryPrefixNorm) {
  PostingList list;
  list.Append(PostingEntry{7, 0.5, 0.25, 1.0});
  EXPECT_DOUBLE_EQ(list.prefix_norm(0), 0.25);
  EXPECT_DOUBLE_EQ(list.value(0), 0.5);
  const PostingEntry row = list.Get(0);
  EXPECT_EQ(row.id, 7u);
  EXPECT_DOUBLE_EQ(row.prefix_norm, 0.25);
}

TEST(PostingListTest, ClearEmpties) {
  PostingList list;
  list.Append(E(1, 1.0));
  list.Clear();
  EXPECT_TRUE(list.empty());
}

TEST(PostingListTest, LowerBoundTsFindsExpiryBoundary) {
  PostingList list;
  for (int i = 0; i < 100; ++i) list.Append(E(i, i * 1.0));
  EXPECT_EQ(list.LowerBoundTs(-1.0), 0u);    // nothing expired
  EXPECT_EQ(list.LowerBoundTs(0.0), 0u);     // ts == cutoff is live
  EXPECT_EQ(list.LowerBoundTs(37.5), 38u);
  EXPECT_EQ(list.LowerBoundTs(37.0), 37u);
  EXPECT_EQ(list.LowerBoundTs(1000.0), 100u);  // everything expired
}

TEST(PostingListTest, LowerBoundTsHandlesDuplicateTimestamps) {
  PostingList list;
  for (int i = 0; i < 8; ++i) list.Append(E(i, 1.0));
  for (int i = 8; i < 16; ++i) list.Append(E(i, 2.0));
  EXPECT_EQ(list.LowerBoundTs(1.0), 0u);
  EXPECT_EQ(list.LowerBoundTs(1.5), 8u);
  EXPECT_EQ(list.LowerBoundTs(2.0), 8u);
}

TEST(PostingListTest, SpansCoverWholeListContiguously) {
  PostingList list;
  for (int i = 0; i < 20; ++i) list.Append(E(i, i, i * 0.5));
  PostingSpan spans[2];
  const size_t n = list.Spans(0, list.size(), spans);
  size_t logical = 0;
  for (size_t s = 0; s < n; ++s) {
    EXPECT_EQ(spans[s].begin, logical);
    for (size_t k = 0; k < spans[s].len; ++k, ++logical) {
      EXPECT_EQ(spans[s].id[k], list.id(logical));
      EXPECT_DOUBLE_EQ(spans[s].value[k], list.value(logical));
      EXPECT_DOUBLE_EQ(spans[s].ts[k], list.ts(logical));
    }
  }
  EXPECT_EQ(logical, list.size());
}

TEST(PostingListTest, SpansSplitAcrossWraparound) {
  // Force the circular storage to wrap: fill past one capacity doubling,
  // truncate the front, then append more so head > 0 and the live range
  // crosses the physical end.
  PostingList list;
  for (int i = 0; i < 8; ++i) list.Append(E(i, i));
  list.TruncateFront(5);  // head moves to 5, size 3 of capacity 8
  for (int i = 8; i < 12; ++i) list.Append(E(i, i));  // wraps
  ASSERT_EQ(list.size(), 7u);
  PostingSpan spans[2];
  const size_t n = list.Spans(0, list.size(), spans);
  EXPECT_EQ(n, 2u);  // genuinely wrapped
  size_t logical = 0;
  for (size_t s = 0; s < n; ++s) {
    for (size_t k = 0; k < spans[s].len; ++k, ++logical) {
      EXPECT_EQ(spans[s].id[k], list.id(logical));
    }
  }
  EXPECT_EQ(logical, 7u);
  // Sub-range spans agree with element accessors too.
  const size_t m = list.Spans(2, 6, spans);
  logical = 2;
  for (size_t s = 0; s < m; ++s) {
    for (size_t k = 0; k < spans[s].len; ++k, ++logical) {
      EXPECT_EQ(spans[s].id[k], list.id(logical));
    }
  }
  EXPECT_EQ(logical, 6u);
}

TEST(PostingListTest, CapacityBytesCountsAllColumns) {
  PostingList list;
  list.Append(E(1, 1.0));
  // Four columns of 8 bytes each over the backing capacity.
  EXPECT_EQ(list.capacity_bytes() % (4 * 8), 0u);
  EXPECT_GE(list.capacity_bytes(), list.size() * 4 * 8);
}

// ---- PostingMap: the flat dim directory ----

TEST(PostingMapTest, EmptyMapFindsNothingAndHoldsNothing) {
  PostingMap map;
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(0xFFFFFFFFu), nullptr);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.begin() == map.end());
  EXPECT_EQ(map.MemoryBytes(), 0u) << "nothing is allocated before insert";
}

TEST(PostingMapTest, ExtremeDimsAreOrdinaryKeys) {
  // 0 is also the dim field of an empty slot, and 0xFFFFFFFF is the
  // largest dim; both must behave like any other dim.
  PostingMap map;
  map.Append(0xFFFFFFFFu, 7, 0.5, 0.0, 1.0);
  EXPECT_EQ(map.Find(0), nullptr);
  map.Append(0, 3, 0.25, 0.0, 2.0);
  ASSERT_NE(map.Find(0), nullptr);
  ASSERT_NE(map.Find(0xFFFFFFFFu), nullptr);
  EXPECT_NE(map.Find(0), map.Find(0xFFFFFFFFu));
  EXPECT_EQ(map.Find(0)->id(0), 3u);
  EXPECT_EQ(map.Find(0xFFFFFFFFu)->id(0), 7u);
  EXPECT_EQ(map.Find(0xFFFFFFFEu), nullptr);
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.size(), 2u);
}

TEST(PostingMapTest, DimsAliasingUnderAPowerOfTwoMaskStayDistinct) {
  // Multiples of 2^20 are one key to any `dim & mask` directory of up to
  // 2^20 slots: they must stay distinct lists, and absent dims of the
  // same pattern must miss.
  PostingMap map;
  constexpr DimId kStride = DimId{1} << 20;
  for (DimId k = 0; k < 300; ++k) {
    map.Append(k * kStride, k, 1.0, 0.0, static_cast<Timestamp>(k));
  }
  EXPECT_EQ(map.size(), 300u);
  for (DimId k = 0; k < 300; ++k) {
    const PostingList* list = map.Find(k * kStride);
    ASSERT_NE(list, nullptr) << k;
    ASSERT_EQ(list->size(), 1u);
    EXPECT_EQ(list->id(0), k);
  }
  for (DimId k = 300; k < 310; ++k) EXPECT_EQ(map.Find(k * kStride), nullptr);
  EXPECT_EQ(map.Find(1), nullptr);
  EXPECT_EQ(map.Find(kStride + 1), nullptr);
}

TEST(PostingMapTest, GrowthKeepsEveryListAtItsAddress) {
  PostingMap map;
  std::vector<const PostingList*> addr;
  for (DimId d = 0; d < 40; ++d) {
    map.Append(d * 3, d, 1.0, 0.0, 0.0);
    addr.push_back(map.Find(d * 3));
  }
  const size_t slots_before = map.directory_capacity();
  for (DimId d = 40; d < 5000; ++d) {
    map.Append(d * 3, d, 1.0, 0.0, 0.0);
    // The new posting lands on an old list too: growth must not disturb
    // lists that keep receiving appends.
    map.Append((d % 40) * 3, d, 1.0, 0.0, 0.0);
  }
  ASSERT_GT(map.directory_capacity(), slots_before) << "directory never grew";
  ASSERT_GT(map.list_capacity(), 40u) << "chunks never grew";
  for (DimId d = 0; d < 40; ++d) {
    EXPECT_EQ(map.Find(d * 3), addr[d]) << "list of dim " << d * 3 << " moved";
    EXPECT_EQ(addr[d]->id(0), d);
  }
  for (DimId d = 0; d < 5000; ++d) {
    ASSERT_NE(map.Find(d * 3), nullptr) << d;
    EXPECT_EQ(map.Find(d * 3 + 1), nullptr) << d;
  }
  EXPECT_EQ(map.size(), 5000u);
}

TEST(PostingMapTest, IteratesInInsertionOrder) {
  PostingMap map;
  std::vector<DimId> order;
  for (DimId k = 0; k < 200; ++k) {
    const DimId dim = (k * 7919u) % 1000u;  // scrambled, distinct
    order.push_back(dim);
    map.FindOrCreate(dim);
    map.Append(dim, k, 1.0, 0.0, 0.0);
  }
  std::vector<DimId> seen;
  std::vector<VectorId> first_ids;
  for (const auto& [dim, list] : map) {
    seen.push_back(dim);
    first_ids.push_back(list.id(0));
  }
  EXPECT_EQ(seen, order);
  for (size_t k = 0; k < first_ids.size(); ++k) EXPECT_EQ(first_ids[k], k);
}

TEST(PostingMapTest, ClearDropsEveryListAndCanRefill) {
  PostingMap map;
  for (DimId d = 0; d < 100; ++d) map.Append(d, d, 1.0, 0.0, 0.0);
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_EQ(map.MemoryBytes(), 0u);
  map.Append(5, 9, 1.0, 0.0, 0.0);
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(map.Find(5)->id(0), 9u);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace sssj
