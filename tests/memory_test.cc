// Memory-footprint accounting: the signal behind the paper's observation
// that STR fails by memory while MB fails by time (§7).
#include <gtest/gtest.h>

#include "index/posting_list.h"
#include "index/stream_inv_index.h"
#include "index/stream_l2_index.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::UnitVec;

TEST(MemoryTest, EmptyIndexReportsNoEntries) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  StreamL2Index index(params);
  EXPECT_EQ(index.live_posting_entries(), 0u);
}

TEST(MemoryTest, FootprintGrowsWithArrivals) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.0001, &params));  // huge horizon
  StreamL2Index index(params);
  CollectorSink sink;
  size_t prev = index.MemoryBytes();
  for (int i = 0; i < 200; ++i) {
    index.ProcessArrival(
        Item(i, i * 0.1,
             UnitVec({{static_cast<DimId>(i % 40), 1.0},
                      {static_cast<DimId>(40 + i % 17), 1.0}})),
        &sink);
  }
  EXPECT_GT(index.MemoryBytes(), prev);
  EXPECT_GT(index.live_posting_entries(), 100u);
}

TEST(MemoryTest, TimeFilteringBoundsFootprint) {
  // With a short horizon and a repetitive stream, memory must plateau:
  // the circular buffers shrink as old entries are truncated.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.5, &params));  // τ ≈ 1.39
  StreamL2Index index(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  size_t at_1k = 0;
  for (int i = 0; i < 2000; ++i) {
    index.ProcessArrival(Item(i, i * 1.0, v), &sink);
    if (i == 999) at_1k = index.MemoryBytes();
  }
  // No more than modest growth in the second thousand arrivals.
  EXPECT_LE(index.MemoryBytes(), at_1k * 2);
  EXPECT_LE(index.live_posting_entries(), 12u);
}

TEST(MemoryTest, AllStreamIndexesReportBytes) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.01, &params));
  StreamInvIndex inv(params);
  StreamL2Index l2(params);
  StreamL2apIndex l2ap(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 2.0}});
  for (StreamIndex* idx :
       std::vector<StreamIndex*>{&inv, &l2, &l2ap}) {
    idx->ProcessArrival(Item(0, 0.0, v), &sink);
    EXPECT_GT(idx->MemoryBytes(), 0u) << idx->name();
  }
}

TEST(MemoryTest, PeakEntriesTrackedAcrossPruning) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 1.0, &params));  // τ ≈ 0.69
  StreamInvIndex index(params);
  CollectorSink sink;
  SparseVector v = UnitVec({{0, 1.0}, {1, 1.0}});
  // Burst at t≈0 builds up entries, then a sparse tail prunes them.
  for (int i = 0; i < 50; ++i) {
    index.ProcessArrival(Item(i, i * 0.01, v), &sink);
  }
  const uint64_t peak = index.stats().peak_index_entries;
  EXPECT_GE(peak, 50u);
  for (int i = 0; i < 20; ++i) {
    index.ProcessArrival(Item(50 + i, 10.0 + i * 5.0, v), &sink);
  }
  EXPECT_LT(index.live_posting_entries(), 10u);
  EXPECT_EQ(index.stats().peak_index_entries, peak);  // peak is sticky
}

// ---- accounting pins: MemoryBytes must not undercount ----

TEST(MemoryTest, PostingListCountsAllocatedCapacityNotJustSize) {
  // The circular buffer grows by doubling, so after one append the
  // allocation is far larger than the payload. Reporting payload only
  // (the old bug) hides most of the resident footprint.
  PostingList list;
  list.Append(1, 0.5, 1.0, 0.0);
  const size_t one_entry_payload =
      sizeof(VectorId) + 2 * sizeof(double) + sizeof(Timestamp);
  EXPECT_GE(list.capacity_bytes(), one_entry_payload);
  // memory_bytes = allocated columns + per-list bookkeeping, so it must
  // strictly exceed the raw allocation.
  EXPECT_GT(list.memory_bytes(), list.capacity_bytes());
  EXPECT_GE(list.memory_bytes(), sizeof(PostingList));
}

TEST(MemoryTest, PostingMapCountsDirectoryAndChunkOverhead) {
  // 200 near-empty lists cost more than the lists alone: the directory
  // is resident, every list object sits in a whole chunk next to its dim
  // key, and the chunk table points at the chunks.
  PostingMap map;
  size_t lists_only = 0;
  for (DimId d = 0; d < 200; ++d) {
    map.Append(d, d, 1.0, 1.0, 0.0);
  }
  for (const auto& [dim, list] : map) lists_only += list.memory_bytes();
  const size_t total = map.MemoryBytes();
  EXPECT_GT(total, lists_only);
  // 200 lists at most 3/4 full: 512 slots; 13 chunks of 16 lists.
  EXPECT_EQ(map.directory_capacity(), 512u);
  EXPECT_EQ(map.list_capacity(), 208u);
  EXPECT_GE(map.chunk_table_capacity(), 13u);
  EXPECT_EQ(total - lists_only,
            512 * sizeof(PostingMap::Slot) +
                map.chunk_table_capacity() * sizeof(void*) +
                208 * sizeof(PostingMap::Entry) - 200 * sizeof(PostingList));
}

TEST(MemoryTest, FrozenColdListUsesFarLessMemoryThanFlat) {
  // A long dormant list (appends, never scanned) should compress its cold
  // prefix: delta+varint ids/ts shrink regular streams by well over 2x
  // versus the flat SoA columns.
  TieredStorageOptions tiered;
  tiered.enabled = true;
  tiered.block_entries = 128;
  tiered.hot_tail_entries = 256;
  tiered.dormant_tail_entries = 32;
  tiered.dormant_after_appends = 8;

  PostingList flat;
  PostingList cold;
  for (uint64_t i = 0; i < 8192; ++i) {
    const double ts = static_cast<double>(i) * 0.25;
    flat.Append(i, 0.5, 1.0, ts);
    cold.Append(i, 0.5, 1.0, ts);
    cold.MaybeFreeze(tiered);
  }
  ASSERT_GT(cold.frozen_blocks(), 0u);
  EXPECT_EQ(cold.size(), flat.size());
  EXPECT_GE(flat.memory_bytes(), 2 * cold.memory_bytes())
      << "flat=" << flat.memory_bytes() << " cold=" << cold.memory_bytes();
}

TEST(MemoryTest, TieredEngineIndexReportsSmallerFootprintOnColdStream) {
  // End-to-end version of the pin above: same stream, same scheme, long
  // horizon — the tiered index must report materially fewer bytes.
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.0001, &params));
  TieredStorageOptions tiered;
  tiered.enabled = true;
  tiered.block_entries = 64;
  tiered.hot_tail_entries = 128;
  tiered.dormant_tail_entries = 16;
  tiered.dormant_after_appends = 4;
  StreamInvIndex flat(params);
  StreamInvIndex cold(params, /*use_simd=*/false, tiered);
  CollectorSink sink;
  for (int i = 0; i < 4000; ++i) {
    SparseVector v = UnitVec({{static_cast<DimId>(i % 5), 1.0},
                              {static_cast<DimId>(5 + i % 3), 1.0}});
    flat.ProcessArrival(Item(i, i * 0.1, v), &sink);
    cold.ProcessArrival(Item(i, i * 0.1, v), &sink);
  }
  EXPECT_LT(cold.MemoryBytes(), flat.MemoryBytes());
}

}  // namespace
}  // namespace sssj
