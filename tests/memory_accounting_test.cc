// Exact, O(1) memory accounting: every MemoryBytes() is a running total
// kept at the mutation sites, and must equal the from-scratch walk
// (testing::WalkMemoryBytes) after every operation — posting-list
// freeze, expiry and compaction, residual-store inserts, expiry and L2AP
// prefix shrinking, checkpoint restore, scheme migration, MB window
// rotation and batch index rebuilds. property_test.cc and tiered_posting_test.cc run the same
// check over every framework × scheme, tiered on and off.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/decay.h"
#include "core/engine.h"
#include "index/decayed_stream_index.h"
#include "index/inv_index.h"
#include "index/posting_list.h"
#include "index/prefix_index.h"
#include "index/residual_store.h"
#include "index/stream_l2ap_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::Item;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::RawVec;
using ::sssj::testing::UnitVec;
using ::sssj::testing::WalkMemoryBytes;

TieredStorageOptions SmallTiers() {
  TieredStorageOptions opts;
  opts.enabled = true;
  opts.block_entries = 4;
  opts.hot_tail_entries = 4;
  opts.dormant_tail_entries = 2;
  opts.dormant_after_appends = 3;
  opts.cold_freeze_quantum = 2;
  return opts;
}

Stream AccountingStream(uint64_t seed, size_t n = 300) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 20;  // few dims → long lists → frozen blocks
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.5;
  spec.seed = seed;
  return RandomStream(spec);
}

ResidualRecord Rec(Timestamp ts, SparseVector prefix) {
  ResidualRecord r;
  r.prefix = std::move(prefix);
  r.ts = ts;
  return r;
}

TEST(MemoryAccountingTest, ResidualStoreTotalTracksEveryMutation) {
  ResidualStore store(/*track_prefix_dims=*/true);
  auto expect_exact = [&store](const char* step) {
    EXPECT_EQ(store.MemoryBytes(), WalkMemoryBytes(store)) << step;
  };
  expect_exact("empty");
  for (VectorId id = 0; id < 40; ++id) {
    std::vector<Coord> coords;
    for (DimId d = 0; d < 1 + id % 5; ++d) {
      coords.push_back(Coord{static_cast<DimId>((id + d) % 7), 1.0 + d});
    }
    store.Insert(id, Rec(static_cast<Timestamp>(id), RawVec(coords)));
    expect_exact("insert");
  }
  // Re-inserting an id replaces the record in place.
  store.Insert(3, Rec(3.0, RawVec({{1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0},
                                   {5, 1.0}, {6, 1.0}})));
  expect_exact("replace");
  for (VectorId id = 0; id < 40; id += 3) {
    ResidualRecord* rec = store.Find(id);
    ASSERT_NE(rec, nullptr);
    store.ShrinkPrefix(rec, rec->prefix.nnz() / 2);
    expect_exact("shrink prefix");
  }
  // Lazy cleanup of the prefix-dim index erases lists that went stale.
  for (DimId d = 0; d < 7; ++d) {
    store.ForEachWithPrefixDim(d, [](VectorId, ResidualRecord&) {});
    expect_exact("prefix-dim cleanup");
  }
  for (Timestamp cutoff : {5.0, 5.0, 17.5, 39.0, 100.0}) {
    store.ExpireOlderThan(cutoff);
    expect_exact("expire");
  }
  EXPECT_TRUE(store.empty());
  store.Insert(50, Rec(50.0, RawVec({{1, 1.0}})));
  store.Clear();
  expect_exact("clear");
  EXPECT_EQ(store.MemoryBytes(), 0u);
}

TEST(MemoryAccountingTest, PostingMapTracksFreezeExpiryAndCompaction) {
  // Time-sorted lists: dormant lists freeze compressed blocks, ticked
  // (scan-tracked) lists freeze raw ones; expiry then drops whole blocks,
  // advances the front block's skip and rewrites a half-dead block.
  PostingMap lists(SmallTiers());
  auto expect_exact = [&lists](const char* step) {
    ASSERT_EQ(lists.MemoryBytes(), WalkMemoryBytes(lists)) << step;
  };
  for (uint64_t i = 1; i <= 400; ++i) {
    const DimId dim = static_cast<DimId>(i % 3);
    const uint64_t tick = dim == 0 ? 0 : i;  // dim 0 stays untracked
    if (dim == 2 && i % 5 == 0) lists.Find(dim)->NoteScanned(tick);
    lists.Append(dim, i, 0.5, 0.25, static_cast<Timestamp>(i), tick);
    expect_exact("append");
  }
  size_t frozen = 0;
  for (const auto& [dim, list] : lists) frozen += list.frozen_blocks();
  EXPECT_GT(frozen, 0u);
  for (Timestamp cutoff : {3.0, 41.0, 42.0, 150.5, 151.0, 399.0, 500.0}) {
    for (DimId dim = 0; dim < 3; ++dim) {
      PostingList* list = lists.Find(dim);
      lists.TruncateFront(list, list->LowerBoundTs(cutoff));
      expect_exact("truncate");
    }
  }
  lists.Clear();
  expect_exact("clear");

  // Unsorted lists (L2AP re-indexing order): forward compaction thaws,
  // filters and re-freezes straddling blocks.
  PostingMap unsorted(SmallTiers());
  for (uint64_t i = 0; i < 300; ++i) {
    const DimId dim = static_cast<DimId>(i % 2);
    unsorted.Append(dim, i, 0.5, 0.0, static_cast<Timestamp>((i * 37) % 101),
                    i % 2 == 0 ? 0 : i + 1);
  }
  ASSERT_EQ(unsorted.MemoryBytes(), WalkMemoryBytes(unsorted));
  FrozenColumns scratch;
  for (Timestamp cutoff : {10.0, 10.0, 55.5, 90.0, 200.0}) {
    for (DimId dim = 0; dim < 2; ++dim) {
      unsorted.CompactExpired(unsorted.Find(dim), cutoff, &scratch);
      ASSERT_EQ(unsorted.MemoryBytes(), WalkMemoryBytes(unsorted))
          << "compact at " << cutoff;
    }
  }
}

// Each round indexes a nine-coordinate vector y with a five-coordinate
// un-indexed prefix, then a query x over those prefix dims whose growing
// weights raise the max vector there, so STR-L2AP re-indexes y's prefix
// into the posting lists (the shape of StreamL2apTest's counterexample).
Stream ReindexingStream() {
  Stream stream;
  for (int k = 0; k < 120; ++k) {
    const DimId base = static_cast<DimId>((k % 6) * 3);
    std::vector<Coord> y;
    for (DimId d = 0; d < 9; ++d) y.push_back(Coord{base + d, 1.0});
    std::vector<Coord> x = {{base, 1.0 + 0.05 * k}};
    for (DimId d = 1; d < 5; ++d) x.push_back(Coord{base + d, 1.0});
    const auto id = static_cast<VectorId>(2 * k);
    stream.push_back(Item(id, k * 1.0, UnitVec(std::move(y))));
    stream.push_back(Item(id + 1, k * 1.0 + 0.5, UnitVec(std::move(x))));
  }
  return stream;
}

TEST(MemoryAccountingTest, L2apReindexingKeepsTotalsExact) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.01, &params));
  const Stream stream = ReindexingStream();
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "flat");
    StreamL2apIndex index(params, 0.0, true, false,
                          tiered ? SmallTiers() : TieredStorageOptions{});
    CollectorSink sink;
    for (const StreamItem& item : stream) {
      index.ProcessArrival(item, &sink);
      ASSERT_EQ(index.MemoryBytes(), WalkMemoryBytes(index))
          << "after item " << item.id;
    }
    EXPECT_GT(index.stats().reindexed_vectors, 0u);  // non-vacuous
    index.Clear();
    EXPECT_EQ(index.MemoryBytes(), WalkMemoryBytes(index));
  }
}

TEST(MemoryAccountingTest, GeneralDecayIndexesKeepTotalsExact) {
  const Stream stream = AccountingStream(17);
  for (const DecayFunction& decay :
       {DecayFunction::Polynomial(1.5, 2.0),
        DecayFunction::SlidingWindow(8.0)}) {
    for (bool tiered : {false, true}) {
      const TieredStorageOptions opts =
          tiered ? SmallTiers() : TieredStorageOptions{};
      GeneralDecayInvIndex inv(0.6, decay, opts);
      GeneralDecayL2Index l2(0.6, decay, opts);
      CollectorSink sink;
      for (const StreamItem& item : stream) {
        inv.ProcessArrival(item, &sink);
        l2.ProcessArrival(item, &sink);
        ASSERT_EQ(inv.MemoryBytes(), WalkMemoryBytes(inv));
        ASSERT_EQ(l2.MemoryBytes(), WalkMemoryBytes(l2));
      }
      EXPECT_GT(inv.stats().entries_pruned, 0u);  // expiry ran
    }
  }
}

// Pushes `items`, checking MemoryBytes() against the walk after each.
void PushChecked(SssjEngine* engine, const Stream& items) {
  for (const StreamItem& item : items) {
    ASSERT_TRUE(engine->Push(item.ts, item.vec).ok());
    ASSERT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine))
        << "after item " << item.id;
  }
}

EngineConfig StrL2Config(bool tiered) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.05;
  if (tiered) cfg.tiered = SmallTiers();
  return cfg;
}

TEST(MemoryAccountingTest, CheckpointRestoreKeepsTotalsExact) {
  const Stream stream = AccountingStream(23);
  const Stream head(stream.begin(), stream.begin() + 150);
  const Stream tail(stream.begin() + 150, stream.end());
  std::vector<EngineConfig> configs = {StrL2Config(false), StrL2Config(true)};
  EngineConfig portable = StrL2Config(true);  // SSSJENG3: replays items
  portable.adaptive.enable_migration = true;
  configs.push_back(portable);
  EngineConfig mb = portable;
  mb.framework = Framework::kMiniBatch;
  mb.index = IndexScheme::kL2ap;
  configs.push_back(mb);
  for (const EngineConfig& cfg : configs) {
    SCOPED_TRACE(std::string(cfg.framework == Framework::kMiniBatch ? "MB-"
                                                                     : "STR-") +
                 ToString(cfg.index) +
                 (cfg.adaptive.enable_migration ? " portable" : " native") +
                 (cfg.tiered.enabled ? " tiered" : ""));
    auto source = *SssjEngine::Make(cfg);
    PushChecked(source.get(), head);
    std::stringstream blob;
    ASSERT_TRUE(source->SaveCheckpoint(blob).ok());
    auto restored = *SssjEngine::Make(cfg);
    ASSERT_TRUE(restored->LoadCheckpoint(blob).ok());
    EXPECT_EQ(restored->MemoryBytes(), WalkMemoryBytes(*restored));
    PushChecked(restored.get(), tail);
  }
}

TEST(MemoryAccountingTest, SwitchSchemeKeepsTotalsExact) {
  const Stream stream = AccountingStream(29, 360);
  EngineConfig cfg = StrL2Config(true);
  cfg.adaptive.enable_migration = true;
  auto engine = *SssjEngine::Make(cfg);
  const struct {
    Framework framework;
    IndexScheme scheme;
  } kTargets[] = {{Framework::kMiniBatch, IndexScheme::kInv},
                  {Framework::kStreaming, IndexScheme::kL2ap},
                  {Framework::kMiniBatch, IndexScheme::kAp},
                  {Framework::kStreaming, IndexScheme::kInv},
                  {Framework::kMiniBatch, IndexScheme::kL2}};
  auto next = stream.begin();
  for (const auto& target : kTargets) {
    PushChecked(engine.get(), Stream(next, next + 60));
    next += 60;
    ASSERT_TRUE(engine->SwitchScheme(target.framework, target.scheme).ok());
    EXPECT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine))
        << "after switching to " << ToString(target.scheme);
  }
  PushChecked(engine.get(), Stream(next, stream.end()));
  EXPECT_EQ(engine->scheme_switches(), 5u);
}

TEST(MemoryAccountingTest, MiniBatchFlushAndReuseKeepTotalsExact) {
  const Stream stream = AccountingStream(31);
  for (IndexScheme scheme : {IndexScheme::kInv, IndexScheme::kL2}) {
    SCOPED_TRACE(ToString(scheme));
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = scheme;
    cfg.theta = 0.6;
    cfg.lambda = 0.05;
    auto engine = *SssjEngine::Make(cfg);
    PushChecked(engine.get(), stream);
    EXPECT_GT(engine->MemoryBytes(), 0u);
    engine->Flush();
    EXPECT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine));
    // Reuse after Flush: a fresh run on the same clock-free join.
    PushChecked(engine.get(), stream);
    engine->Flush();
    EXPECT_EQ(engine->MemoryBytes(), WalkMemoryBytes(*engine));
  }
}

// One batch index rebuilt over windows that grow and then shrink: after
// every Build its total equals the walk over the directory, the CSR
// columns, the per-position arrays and the self-query records. Build
// keeps capacity, so the total never falls; Clear releases everything.
TEST(MemoryAccountingTest, BatchIndexRebuildsKeepTotalsExact) {
  const Stream stream = AccountingStream(41, 420);
  std::vector<std::unique_ptr<BatchIndex>> indexes;
  indexes.push_back(std::make_unique<InvIndex>(0.6));
  indexes.push_back(std::make_unique<ApIndex>(0.6));
  indexes.push_back(std::make_unique<L2apIndex>(0.6));
  indexes.push_back(std::make_unique<L2Index>(0.6));
  for (const auto& index : indexes) {
    SCOPED_TRACE(index->name());
    size_t before = 0;
    auto next = stream.begin();
    for (const size_t size : {20u, 80u, 200u, 60u, 0u, 40u}) {
      const Stream window(next, next + static_cast<std::ptrdiff_t>(size));
      next += static_cast<std::ptrdiff_t>(size);
      MaxVector m;
      for (const StreamItem& item : window) m.UpdateFrom(item.vec, nullptr);
      index->Build(window, m);
      ASSERT_EQ(index->MemoryBytes(), WalkMemoryBytes(*index))
          << "window of " << size;
      EXPECT_GE(index->MemoryBytes(), before) << "window of " << size;
      before = index->MemoryBytes();
    }
    EXPECT_GT(before, 0u);
    index->Clear();
    EXPECT_EQ(index->MemoryBytes(), 0u);
    EXPECT_EQ(WalkMemoryBytes(*index), 0u);
  }
}

TEST(MemoryAccountingTest, AutoEngineKeepsTotalsExact) {
  EngineConfig cfg = StrL2Config(false);
  cfg.index = IndexScheme::kAuto;
  cfg.adaptive.duel_epoch_items = 64;
  cfg.adaptive.duel_sample = 32;
  auto engine = *SssjEngine::Make(cfg);
  PushChecked(engine.get(), AccountingStream(37, 400));
}

}  // namespace
}  // namespace sssj
