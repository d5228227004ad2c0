// JoinService-wide memory budget: freeze + evict-to-checkpoint keeps N
// sessions running under a cap, per-session output stays identical to an
// unbudgeted run, and an unmeetable budget degrades to kResourceExhausted
// instead of unbounded growth.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/join_service.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::WalkMemoryBytes;

EngineConfig BudgetedEngineConfig() {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.001;  // long horizon → the index actually grows
  cfg.tiered.enabled = true;
  cfg.tiered.block_entries = 16;
  cfg.tiered.hot_tail_entries = 32;
  cfg.tiered.dormant_tail_entries = 8;
  cfg.tiered.dormant_after_appends = 4;
  return cfg;
}

Stream SessionStream(uint64_t seed) {
  RandomStreamSpec spec;
  spec.n = 250;
  spec.dims = 25;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.4;
  spec.seed = seed;
  return RandomStream(spec);
}

TEST(MemoryBudgetTest, SessionsKeepRunningUnderTightBudgetViaEviction) {
  constexpr int kSessions = 4;
  std::vector<Stream> streams;
  for (int s = 0; s < kSessions; ++s) {
    streams.push_back(SessionStream(1000 + s));
  }

  // Reference: unbudgeted standalone runs.
  std::vector<std::vector<ResultPair>> expected;
  size_t max_engine_bytes = 0;
  for (int s = 0; s < kSessions; ++s) {
    CollectorSink sink;
    auto engine = SssjEngine::Make(BudgetedEngineConfig(), &sink);
    ASSERT_TRUE(engine.ok());
    for (const StreamItem& item : streams[s]) {
      ASSERT_TRUE((*engine)->Push(item.ts, item.vec).ok());
    }
    max_engine_bytes = std::max(max_engine_bytes, (*engine)->MemoryBytes());
    expected.push_back(sink.pairs());
  }

  // Budget fits roughly two full sessions — far less than all four — so
  // the service must evict dormant sessions to checkpoint files to stay
  // under it. Pushing in long per-session runs makes the other sessions
  // dormant (no recent activity) and therefore evictable.
  JoinServiceOptions options;
  options.memory_budget_bytes = 2 * max_engine_bytes + (64u << 10);
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  std::vector<CollectorSink> sinks(kSessions);
  std::vector<JoinService::SessionHandle> handles(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    auto handle = service.CreateSession(
        {"tenant-" + std::to_string(s), BudgetedEngineConfig(), &sinks[s]});
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    handles[s] = *handle;
  }
  // Interleave in chunks: every session repeatedly goes dormant while the
  // others push, then is reloaded transparently by its next chunk.
  constexpr size_t kChunk = 50;
  for (size_t base = 0; base < streams[0].size(); base += kChunk) {
    for (int s = 0; s < kSessions; ++s) {
      const size_t end = std::min(base + kChunk, streams[s].size());
      for (size_t i = base; i < end; ++i) {
        const Status status =
            service.Push(handles[s], streams[s][i].ts, streams[s][i].vec);
        ASSERT_TRUE(status.ok())
            << "session " << s << " item " << i << ": " << status.message();
      }
    }
  }

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.sessions_evicted, 0u);  // the budget actually bit
  EXPECT_GT(stats.session_reloads, 0u);   // and sessions came back
  EXPECT_EQ(stats.budget_rejections, 0u);

  // Eviction/reload must be invisible in the output.
  for (int s = 0; s < kSessions; ++s) {
    const std::vector<ResultPair>& got = sinks[s].pairs();
    ASSERT_EQ(got.size(), expected[s].size()) << "session " << s;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].a, expected[s][i].a);
      EXPECT_EQ(got[i].b, expected[s][i].b);
      EXPECT_EQ(got[i].dot, expected[s][i].dot);
      EXPECT_EQ(got[i].sim, expected[s][i].sim);
    }
    EXPECT_TRUE(service.CloseSession(handles[s]).ok());
  }
}

// A migration-enabled MB-L2 session: evictable through the portable
// checkpoint, and its Flush closes both windows, so the flush itself
// changes MemoryBytes() (buffered items leave, the peak window index may
// grow). The short horizon (tau ~ 25 time units) closes windows mid-stream.
EngineConfig MigratableMbConfig() {
  EngineConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.adaptive.enable_migration = true;
  return cfg;
}

Stream Slice(const Stream& stream, size_t begin, size_t end) {
  return Stream(stream.begin() + static_cast<ptrdiff_t>(begin),
                stream.begin() + static_cast<ptrdiff_t>(end));
}

// Two sessions of `cfg` under a budget of 1.25x the peak bytes of one
// session fed like session 1 below. Each session has a standalone mirror
// engine fed the same calls and spilled/reloaded through the same
// checkpoint whenever the service evicts/reloads the session, so the
// mirrors' accounting walks are the true resident bytes. After every
// Push, PushBatch and (with `flush_every` > 0, after every
// flush_every-th item) Flush, each session's cached share in
// ServiceStats — the figure the budget totals — must equal its walk, and
// the budget check, made at the start of each push on the totals the
// previous call left, must evict on exactly the first push that finds
// the walked total over the budget, and on no other.
void ExpectBudgetActsOnExactBytes(const EngineConfig& cfg,
                                  const std::string& prefix,
                                  size_t flush_every) {
  constexpr size_t kBatch = 8;
  const Stream stream = SessionStream(77);
  size_t one_session_bytes = 0;
  {
    auto probe = *SssjEngine::Make(cfg);
    for (size_t i = 0; i < stream.size(); i += kBatch) {
      const Stream batch =
          Slice(stream, i, std::min(stream.size(), i + kBatch));
      ASSERT_EQ(probe->PushBatch(batch).accepted, batch.size());
      one_session_bytes = std::max(one_session_bytes, probe->MemoryBytes());
      if (flush_every > 0 && (i + batch.size()) % flush_every == 0) {
        probe->Flush();
        one_session_bytes = std::max(one_session_bytes, probe->MemoryBytes());
      }
    }
  }
  JoinServiceOptions options;
  options.memory_budget_bytes = one_session_bytes + one_session_bytes / 4;
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  struct Tenant {
    JoinService::SessionHandle handle;
    std::unique_ptr<SssjEngine> mirror;
    std::string spilled;  // the mirror's checkpoint while evicted
    bool evicted = false;
  };
  Tenant tenants[2];
  for (int s = 0; s < 2; ++s) {
    // Names sort in index order, matching ServiceStats::sessions.
    auto handle = service.CreateSession({prefix + std::to_string(s), cfg,
                                         /*sink=*/nullptr});
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    tenants[s].handle = *handle;
    tenants[s].mirror = *SssjEngine::Make(cfg);
  }
  auto walked_total = [&tenants]() {
    size_t total = 0;
    for (const Tenant& t : tenants) total += WalkMemoryBytes(*t.mirror);
    return total;
  };

  uint64_t evictions = 0;
  // Mirrors what the service did during the last call: spills the mirror
  // of every session it evicted, then checks every share against its walk.
  auto check_shares = [&]() {
    const ServiceStats stats = service.Stats();
    evictions = stats.sessions_evicted;
    ASSERT_EQ(stats.sessions.size(), 2u);
    for (int v = 0; v < 2; ++v) {
      if (stats.sessions[v].evicted && !tenants[v].evicted) {
        std::ostringstream blob;
        ASSERT_TRUE(tenants[v].mirror->SaveCheckpoint(blob).ok());
        tenants[v].spilled = blob.str();
        tenants[v].mirror = *SssjEngine::Make(cfg);
        tenants[v].evicted = true;
      }
      EXPECT_EQ(stats.sessions[v].memory_bytes,
                WalkMemoryBytes(*tenants[v].mirror))
          << "session " << v;
    }
    EXPECT_EQ(stats.memory_bytes, walked_total());
  };
  auto reload_mirror = [&](Tenant& tenant) {
    if (!tenant.evicted) return;  // the service reloads it before applying
    tenant.mirror = *SssjEngine::Make(cfg);
    std::istringstream blob(tenant.spilled);
    ASSERT_TRUE(tenant.mirror->LoadCheckpoint(blob).ok());
    tenant.evicted = false;
  };
  auto push = [&](int s, const Stream& batch, bool as_batch) {
    Tenant& tenant = tenants[s];
    const size_t before = walked_total();
    reload_mirror(tenant);
    if (as_batch) {
      auto result = service.PushBatch(tenant.handle, batch);
      ASSERT_TRUE(result.ok()) << result.status().message();
      ASSERT_EQ(result->accepted, batch.size());
      ASSERT_EQ(tenant.mirror->PushBatch(batch).accepted, batch.size());
    } else {
      for (const StreamItem& item : batch) {
        const Status status = service.Push(tenant.handle, item.ts, item.vec);
        ASSERT_TRUE(status.ok()) << status.message();
        ASSERT_TRUE(tenant.mirror->Push(item.ts, item.vec).ok());
      }
    }
    EXPECT_EQ(service.Stats().sessions_evicted > evictions,
              before > options.memory_budget_bytes)
        << "walked total before the call: " << before;
    check_shares();
  };
  auto flush = [&](int s) {
    Tenant& tenant = tenants[s];
    reload_mirror(tenant);
    ASSERT_TRUE(service.Flush(tenant.handle).ok());
    tenant.mirror->Flush();
    EXPECT_EQ(service.Stats().sessions_evicted, evictions)
        << "Flush never evicts";
    check_shares();
  };

  // Session 0 grows to half a stream item by item; session 1 grows in
  // batches until session 0 no longer fits and is spilled; session 0
  // then reloads, finishes item by item and pushes session 1 out.
  const size_t half = stream.size() / 2;
  auto run = [&](int s, size_t begin, size_t end, bool as_batch) {
    const size_t step = as_batch ? kBatch : 1;
    for (size_t i = begin; i < end; i += step) {
      push(s, Slice(stream, i, std::min(end, i + step)), as_batch);
      if (::testing::Test::HasFatalFailure()) return;
      if (flush_every > 0 && std::min(end, i + step) % flush_every == 0) {
        flush(s);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  };
  run(0, 0, half, /*as_batch=*/false);
  run(1, 0, stream.size(), /*as_batch=*/true);
  run(0, half, stream.size(), /*as_batch=*/false);
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.sessions_evicted, 2u);  // both sessions were spilled
  EXPECT_GT(stats.session_reloads, 0u);
  EXPECT_EQ(stats.budget_rejections, 0u);
}

TEST(MemoryBudgetTest, BudgetActsOnExactBytesAtEveryPush) {
  ExpectBudgetActsOnExactBytes(BudgetedEngineConfig(), "exact-",
                               /*flush_every=*/0);
}

TEST(MemoryBudgetTest, BudgetActsOnExactBytesAcrossFlushes) {
  ExpectBudgetActsOnExactBytes(MigratableMbConfig(), "exact-flush-",
                               /*flush_every=*/32);
}

TEST(MemoryBudgetTest, FlushOnEvictedSessionReloadsFirst) {
  // Session "flush-a" is evicted while pairs are pending in its MB
  // windows. Flushing it must reload it first and emit those pairs, so
  // its output stays the pair sequence of a never-evicted engine fed the
  // same pushes and flushes.
  const EngineConfig cfg = MigratableMbConfig();
  const Stream stream = SessionStream(31);
  const size_t half = stream.size() / 2;
  CollectorSink mirror_sink;
  auto mirror = *SssjEngine::Make(cfg, &mirror_sink);
  size_t one_session_bytes = 0;
  {
    auto probe = *SssjEngine::Make(cfg);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(probe->Push(item.ts, item.vec).ok());
    }
    one_session_bytes = probe->MemoryBytes();
  }
  JoinServiceOptions options;
  options.memory_budget_bytes = one_session_bytes * 6 / 5;
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);
  CollectorSink sink_a;
  auto a = service.CreateSession({"flush-a", cfg, &sink_a});
  auto b = service.CreateSession({"flush-b", cfg, /*sink=*/nullptr});
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();

  auto push_a = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(service.Push(*a, stream[i].ts, stream[i].vec).ok());
      ASSERT_TRUE(mirror->Push(stream[i].ts, stream[i].vec).ok());
    }
  };
  push_a(0, half);
  // Growing session b forces dormant session a out.
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*b, item.ts, item.vec).ok());
  }
  ASSERT_TRUE(service.Stats().sessions[0].evicted);

  const size_t pending_before = mirror_sink.pairs().size();
  ASSERT_TRUE(service.Flush(*a).ok());
  mirror->Flush();
  ASSERT_GT(mirror_sink.pairs().size(), pending_before)
      << "the flush must have window pairs to emit";
  ::sssj::testing::ExpectSamePairSequence(sink_a.pairs(), mirror_sink.pairs());

  push_a(half, stream.size());
  ASSERT_TRUE(service.Flush(*a).ok());
  mirror->Flush();
  ::sssj::testing::ExpectSamePairSequence(sink_a.pairs(), mirror_sink.pairs());
  EXPECT_TRUE(service.CloseSession(*a).ok());
  EXPECT_TRUE(service.CloseSession(*b).ok());
}

TEST(MemoryBudgetTest, UnmeetableBudgetReturnsResourceExhausted) {
  // One session, no spill dir: nothing is evictable, so once the engine
  // outgrows the (tiny) budget every further push must be refused with
  // kResourceExhausted — deterministic backpressure, not an OOM.
  JoinServiceOptions options;
  options.memory_budget_bytes = 20u << 10;  // 20 KiB: a few dozen postings
  JoinService service(options);
  CollectorSink sink;
  auto handle =
      service.CreateSession({"crowded", BudgetedEngineConfig(), &sink});
  ASSERT_TRUE(handle.ok());

  const Stream stream = SessionStream(42);
  bool exhausted = false;
  for (const StreamItem& item : stream) {
    const Status status = service.Push(*handle, item.ts, item.vec);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
          << status.message();
      exhausted = true;
      break;
    }
  }
  EXPECT_TRUE(exhausted);
  EXPECT_GT(service.Stats().budget_rejections, 0u);
  // The session is still alive and closable — refusal is not corruption.
  EXPECT_TRUE(service.CloseSession(*handle).ok());
}

TEST(MemoryBudgetTest, NonEvictableSessionsCountButSurvive) {
  // An MB session can never be evicted (no checkpoint support); with a
  // budget it still runs until the cap is hit, and an evictable STR-L2
  // session beside it is the one that gets spilled.
  JoinServiceOptions options;
  options.memory_budget_bytes = 4u << 20;  // roomy: nothing should trip
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);

  EngineConfig mb = BudgetedEngineConfig();
  mb.framework = Framework::kMiniBatch;
  CollectorSink mb_sink, str_sink;
  auto mbh = service.CreateSession({"mb", mb, &mb_sink});
  auto strh =
      service.CreateSession({"str", BudgetedEngineConfig(), &str_sink});
  ASSERT_TRUE(mbh.ok());
  ASSERT_TRUE(strh.ok());
  const Stream stream = SessionStream(7);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*mbh, item.ts, item.vec).ok());
    ASSERT_TRUE(service.Push(*strh, item.ts, item.vec).ok());
  }
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.budget_rejections, 0u);
  EXPECT_EQ(stats.num_sessions, 2u);
  EXPECT_TRUE(service.CloseSession(*mbh).ok());
  EXPECT_TRUE(service.CloseSession(*strh).ok());
}

TEST(MemoryBudgetTest, StrL2SessionWithThreadsIsEvictable) {
  // num_threads does not change STR-L2, so such a session checkpoints,
  // spills and reloads like any other STR-L2 session, and its output
  // matches an unbudgeted run.
  EngineConfig cfg = BudgetedEngineConfig();
  cfg.num_threads = 4;
  const Stream stream = SessionStream(2000);
  CollectorSink ref_sink;
  auto ref = SssjEngine::Make(cfg, &ref_sink);
  ASSERT_TRUE(ref.ok());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE((*ref)->Push(item.ts, item.vec).ok());
  }
  ASSERT_FALSE(ref_sink.pairs().empty());

  // Room for about one and a half sessions: filling the second evicts
  // the first, and finishing the first reloads it.
  JoinServiceOptions options;
  options.num_threads = 2;
  options.memory_budget_bytes = (*ref)->MemoryBytes() * 3 / 2;
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);
  CollectorSink sinks[2];
  JoinService::SessionHandle handles[2];
  for (int s = 0; s < 2; ++s) {
    auto handle = service.CreateSession(
        {"threads-" + std::to_string(s), cfg, &sinks[s]});
    ASSERT_TRUE(handle.ok()) << handle.status().message();
    handles[s] = *handle;
  }
  const size_t half = stream.size() / 2;
  for (const auto& [s, begin, end] :
       {std::tuple<int, size_t, size_t>{0, 0, half},
        std::tuple<int, size_t, size_t>{1, 0, stream.size()},
        std::tuple<int, size_t, size_t>{0, half, stream.size()}}) {
    for (size_t i = begin; i < end; ++i) {
      const Status status =
          service.Push(handles[s], stream[i].ts, stream[i].vec);
      ASSERT_TRUE(status.ok()) << "session " << s << " item " << i << ": "
                               << status.message();
    }
  }
  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.sessions_evicted, 0u);
  EXPECT_GT(stats.session_reloads, 0u);
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(service.CloseSession(handles[s]).ok());
    ::sssj::testing::ExpectSamePairSequence(sinks[s].pairs(),
                                            ref_sink.pairs());
  }
}

TEST(MemoryBudgetTest, SaveCheckpointOnEvictedSessionReloadsFirst) {
  // Force an eviction, then SaveCheckpoint the evicted session: the file
  // must contain the real state, not the empty stand-in engine.
  const Stream stream = SessionStream(11);

  // Size the budget so one fully grown session fits but two do not.
  size_t one_session_bytes = 0;
  {
    CollectorSink probe_sink;
    auto probe = SssjEngine::Make(BudgetedEngineConfig(), &probe_sink);
    ASSERT_TRUE(probe.ok());
    for (const StreamItem& item : stream) {
      ASSERT_TRUE((*probe)->Push(item.ts, item.vec).ok());
    }
    one_session_bytes = (*probe)->MemoryBytes();
  }

  JoinServiceOptions options;
  options.memory_budget_bytes = one_session_bytes + (one_session_bytes / 2);
  options.spill_dir = ::testing::TempDir();
  JoinService service(options);
  CollectorSink sink_a, sink_b;
  auto a = service.CreateSession({"a", BudgetedEngineConfig(), &sink_a});
  auto b = service.CreateSession({"b", BudgetedEngineConfig(), &sink_b});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*a, item.ts, item.vec).ok());
  }
  // Growing session b forces dormant session a out.
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(service.Push(*b, item.ts, item.vec).ok());
  }
  ASSERT_GT(service.Stats().sessions_evicted, 0u);

  const std::string path = ::testing::TempDir() + "evicted_save.ckpt";
  ASSERT_TRUE(service.SaveCheckpoint(*a, path).ok());
  // Restoring that checkpoint standalone yields session a's full state.
  CollectorSink probe_sink;
  auto probe = SssjEngine::Make(BudgetedEngineConfig(), &probe_sink);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE((*probe)->LoadCheckpoint(path).ok());
  EXPECT_EQ((*probe)->next_id(), stream.size());
  std::remove(path.c_str());
}

// Session "<prefix>-a" (MB, migration-enabled) pushes the first half of
// its stream, then session "<prefix>-b" grows until a is evicted. The
// mirror engine is fed exactly what a is fed.
struct EvictedSessionFixture {
  EngineConfig cfg = MigratableMbConfig();
  Stream stream = SessionStream(37);
  size_t half = stream.size() / 2;
  CollectorSink mirror_sink;
  std::unique_ptr<SssjEngine> mirror = *SssjEngine::Make(cfg, &mirror_sink);
  std::unique_ptr<JoinService> service;
  CollectorSink sink_a;
  JoinService::SessionHandle a;
  JoinService::SessionHandle b;
  RunStats a_stats_before_eviction;

  void PushA(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(service->Push(a, stream[i].ts, stream[i].vec).ok());
      ASSERT_TRUE(mirror->Push(stream[i].ts, stream[i].vec).ok());
    }
  }

  void SetUp(const std::string& prefix) {
    size_t one_session_bytes = 0;
    {
      auto probe = *SssjEngine::Make(cfg);
      for (const StreamItem& item : stream) {
        ASSERT_TRUE(probe->Push(item.ts, item.vec).ok());
      }
      one_session_bytes = probe->MemoryBytes();
    }
    JoinServiceOptions options;
    options.memory_budget_bytes = one_session_bytes * 6 / 5;
    options.spill_dir = ::testing::TempDir();
    service = std::make_unique<JoinService>(options);
    auto ha = service->CreateSession({prefix + "-a", cfg, &sink_a});
    auto hb = service->CreateSession({prefix + "-b", cfg, /*sink=*/nullptr});
    ASSERT_TRUE(ha.ok()) << ha.status().message();
    ASSERT_TRUE(hb.ok()) << hb.status().message();
    a = *ha;
    b = *hb;
    PushA(0, half);
    auto stats = service->SessionStats(a);
    ASSERT_TRUE(stats.ok());
    a_stats_before_eviction = *stats;
    // Growing session b forces dormant session a out.
    for (const StreamItem& item : stream) {
      ASSERT_TRUE(service->Push(b, item.ts, item.vec).ok());
    }
    ASSERT_TRUE(IsEvicted(0));
  }

  bool IsEvicted(size_t session_index) const {
    return service->Stats().sessions.at(session_index).evicted;
  }
};

TEST(MemoryBudgetTest, FailedLoadLeavesEvictedSessionEvictedAndIntact) {
  // A garbage checkpoint offered to an evicted session must fail without
  // touching its spilled state: the session stays evicted, reloads on
  // its next push, and its output stays the never-evicted mirror's.
  EvictedSessionFixture f;
  ASSERT_NO_FATAL_FAILURE(f.SetUp("load"));

  const std::string garbage = ::testing::TempDir() + "garbage.ckpt";
  {
    std::ofstream os(garbage, std::ios::binary);
    os << "definitely not a checkpoint";
  }
  EXPECT_FALSE(f.service->LoadCheckpoint(f.a, garbage).ok());
  EXPECT_TRUE(f.IsEvicted(0)) << "a failed load must leave the spill in place";
  std::istringstream truncated(std::string("SSSJENG3", 8));
  EXPECT_FALSE(f.service->LoadCheckpoint(f.a, truncated).ok());
  EXPECT_TRUE(f.IsEvicted(0));
  std::remove(garbage.c_str());

  f.PushA(f.half, f.stream.size());
  EXPECT_FALSE(f.IsEvicted(0));
  ASSERT_TRUE(f.service->Flush(f.a).ok());
  f.mirror->Flush();
  ASSERT_FALSE(f.mirror_sink.pairs().empty());
  ::sssj::testing::ExpectSamePairSequence(f.sink_a.pairs(),
                                          f.mirror_sink.pairs());
}

TEST(MemoryBudgetTest, GoodLoadIntoEvictedSessionReplacesItsState) {
  // The success path of the same swap: a valid checkpoint replaces the
  // evicted session's state and retires its spill.
  EvictedSessionFixture f;
  ASSERT_NO_FATAL_FAILURE(f.SetUp("swap"));
  std::stringstream ckpt;
  ASSERT_TRUE(f.mirror->SaveCheckpoint(ckpt).ok());
  ASSERT_TRUE(f.service->LoadCheckpoint(f.a, ckpt).ok());
  EXPECT_FALSE(f.IsEvicted(0));
  f.PushA(f.half, f.stream.size());
  ASSERT_TRUE(f.service->Flush(f.a).ok());
  f.mirror->Flush();
  EXPECT_EQ(f.service->Stats().session_reloads, 0u)
      << "the loaded checkpoint, not the spill, must have been used";
  ::sssj::testing::ExpectSamePairSequence(f.sink_a.pairs(),
                                          f.mirror_sink.pairs());
}

TEST(MemoryBudgetTest, EvictedSessionReportsItsStatsNotTheStandIns) {
  EvictedSessionFixture f;
  ASSERT_NO_FATAL_FAILURE(f.SetUp("stats"));
  ASSERT_GT(f.a_stats_before_eviction.vectors_processed, 0u);

  auto evicted = f.service->SessionStats(f.a);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->ToString(), f.a_stats_before_eviction.ToString());

  const ServiceStats service_stats = f.service->Stats();
  const ServiceStats::SessionEntry& entry = service_stats.sessions.at(0);
  EXPECT_TRUE(entry.evicted);
  EXPECT_EQ(entry.vectors_processed,
            f.a_stats_before_eviction.vectors_processed);
  EXPECT_EQ(entry.pairs_emitted, f.a_stats_before_eviction.pairs_emitted);
}

}  // namespace
}  // namespace sssj
