// IndexScheme::kAuto — the set-dueling adaptive scheme. Pins: parsing,
// knob validation, verdict cadence and determinism, correctness of the
// output across auto-triggered migrations, and the checkpoint dispatch
// rules for kAuto engines.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/auto_tuner.h"
#include "core/engine.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectMatchesOracle;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;

Stream TunerStream(uint64_t seed, size_t n = 600) {
  RandomStreamSpec spec;
  spec.n = n;
  spec.dims = 30;
  spec.min_nnz = 2;
  spec.max_nnz = 6;
  spec.max_gap = 0.3;
  spec.seed = seed;
  return RandomStream(spec);
}

EngineConfig AutoConfig(uint64_t epoch_items = 100) {
  EngineConfig cfg;
  cfg.index = IndexScheme::kAuto;
  cfg.theta = 0.7;
  cfg.lambda = 0.05;
  cfg.adaptive.duel_epoch_items = epoch_items;
  cfg.adaptive.duel_sample = 48;
  return cfg;
}

TEST(AutoTuneTest, ParseAcceptsAuto) {
  auto parsed = ParseIndexScheme("auto");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, IndexScheme::kAuto);
  auto upper = ParseIndexScheme("AUTO");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(*upper, IndexScheme::kAuto);
  EXPECT_STREQ(ToString(IndexScheme::kAuto), "AUTO");
}

TEST(AutoTuneTest, MakeValidatesAdaptiveKnobs) {
  {
    EngineConfig cfg = AutoConfig();
    cfg.adaptive.duel_epoch_items = 0;
    EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
  }
  {
    EngineConfig cfg = AutoConfig();
    cfg.adaptive.duel_sample = 0;
    EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
  }
  {
    EngineConfig cfg = AutoConfig();
    cfg.adaptive.switch_after_wins = 0;
    EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
  }
  {
    EngineConfig cfg = AutoConfig();
    cfg.adaptive.hysteresis = 1.0;
    EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
  }
  {
    EngineConfig cfg = AutoConfig();
    cfg.adaptive.hysteresis = -0.1;
    EXPECT_EQ(SssjEngine::Make(cfg).status().code(), StatusCode::kOutOfRange);
  }
  // The same knobs are NOT validated for non-auto engines (they are
  // dormant there).
  {
    EngineConfig cfg;
    cfg.adaptive.duel_epoch_items = 0;
    EXPECT_TRUE(SssjEngine::Make(cfg).ok());
  }
}

TEST(AutoTuneTest, AutoEngineStartsOnL2AndReportsVerdictsEachEpoch) {
  std::vector<DuelVerdict> verdicts;
  EngineConfig cfg = AutoConfig(100);
  cfg.adaptive.on_verdict = [&](const DuelVerdict& v) {
    verdicts.push_back(v);
  };
  auto engine_or = SssjEngine::Make(cfg);
  ASSERT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  SssjEngine& engine = **engine_or;
  EXPECT_EQ(engine.active_framework(), Framework::kStreaming);
  EXPECT_EQ(engine.active_scheme(), IndexScheme::kL2);

  const Stream stream = TunerStream(5, 350);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(engine.Push(item.ts, item.vec).ok());
  }
  // 350 accepted items at 100/epoch → exactly 3 closed epochs.
  ASSERT_EQ(verdicts.size(), 3u);
  for (size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].epoch, i + 1);
    EXPECT_GT(verdicts[i].sampled_items, 0u);
    // The champion reported is always the engine's combination at that
    // epoch, and champion never duels itself.
    EXPECT_FALSE(verdicts[i].champion_framework ==
                     verdicts[i].challenger_framework &&
                 verdicts[i].champion_scheme == verdicts[i].challenger_scheme);
    // ToString carries the tokens the CLI greps for.
    const std::string s = verdicts[i].ToString();
    EXPECT_NE(s.find("duel epoch="), std::string::npos) << s;
    EXPECT_NE(s.find("champion="), std::string::npos) << s;
    EXPECT_NE(s.find("challenger="), std::string::npos) << s;
  }
}

TEST(AutoTuneTest, IdenticalStreamsProduceIdenticalVerdicts) {
  auto run = [](std::vector<std::string>* log) {
    EngineConfig cfg = AutoConfig(80);
    cfg.adaptive.switch_after_wins = 2;
    cfg.adaptive.on_verdict = [log](const DuelVerdict& v) {
      log->push_back(v.ToString());
    };
    auto engine_or = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine_or.ok());
    const Stream stream = TunerStream(11, 500);
    for (const StreamItem& item : stream) {
      ASSERT_TRUE((*engine_or)->Push(item.ts, item.vec).ok());
    }
  };
  std::vector<std::string> first;
  std::vector<std::string> second;
  run(&first);
  run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// The headline correctness property: whatever the duel decides, however
// often it migrates, the engine's output is a correct join — and when a
// migration fires, the streak that caused it is visible in the verdicts.
TEST(AutoTuneTest, AutoOutputMatchesOracleAcrossMigrations) {
  std::vector<DuelVerdict> verdicts;
  CollectorSink sink;
  EngineConfig cfg = AutoConfig(60);
  // Aggressive switching so the test actually exercises migrations.
  cfg.adaptive.switch_after_wins = 1;
  cfg.adaptive.hysteresis = 0.0;
  cfg.adaptive.duel_sample = 32;
  cfg.adaptive.on_verdict = [&](const DuelVerdict& v) {
    verdicts.push_back(v);
  };
  auto engine_or = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;

  const Stream stream = TunerStream(17, 600);
  for (const StreamItem& item : stream) {
    ASSERT_TRUE(engine.Push(item.ts, item.vec).ok());
  }
  engine.Flush();

  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());

  uint64_t migrations_in_verdicts = 0;
  for (const DuelVerdict& v : verdicts) {
    if (v.migrate) ++migrations_in_verdicts;
  }
  EXPECT_EQ(engine.scheme_switches(), migrations_in_verdicts);
  if (engine.scheme_switches() > 0) {
    // After a migration the engine runs what the verdict promised.
    const DuelVerdict* last_migrate = nullptr;
    for (const DuelVerdict& v : verdicts) {
      if (v.migrate) last_migrate = &v;
    }
    ASSERT_NE(last_migrate, nullptr);
    // Later duels may not have migrated again; the active combination must
    // match the last migrating verdict's challenger.
    EXPECT_EQ(engine.active_framework(), last_migrate->challenger_framework);
    EXPECT_EQ(engine.active_scheme(), last_migrate->challenger_scheme);
  }
}

TEST(AutoTuneTest, DuelCostUsesTraversalAndDots) {
  RunStats s;
  s.entries_traversed = 100;
  s.full_dots = 40;
  s.pairs_emitted = 7;  // not part of the cost model
  EXPECT_EQ(AutoTuner::DuelCost(s), 140u);
}

TEST(AutoTuneTest, AutoEngineCheckpointRoundTripsPortably) {
  CollectorSink sink;
  EngineConfig cfg = AutoConfig(1000000);  // no duels mid-test
  auto engine_or = SssjEngine::Make(cfg, &sink);
  ASSERT_TRUE(engine_or.ok());
  SssjEngine& engine = **engine_or;
  const Stream stream = TunerStream(23, 300);
  const size_t split = 150;
  for (size_t i = 0; i < split; ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
  }
  std::stringstream snapshot(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(engine.SaveCheckpoint(snapshot).ok());
  const size_t prefix_pairs = sink.pairs().size();

  CollectorSink restored_sink;
  auto restored_or = SssjEngine::Make(AutoConfig(1000000), &restored_sink);
  ASSERT_TRUE(restored_or.ok());
  SssjEngine& restored = **restored_or;
  ASSERT_TRUE(restored.LoadCheckpoint(snapshot).ok());
  EXPECT_EQ(restored.next_id(), engine.next_id());

  for (size_t i = split; i < stream.size(); ++i) {
    ASSERT_TRUE(engine.Push(stream[i].ts, stream[i].vec).ok());
    ASSERT_TRUE(restored.Push(stream[i].ts, stream[i].vec).ok());
  }
  engine.Flush();
  restored.Flush();
  // The restored engine emits exactly the suffix pairs the original does,
  // bitwise and in order (the prefix pairs were already reported by the
  // original and are watermark-suppressed in the restored engine).
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.7, 0.05, &params));
  ExpectMatchesOracle(stream, params, sink.pairs());
  ASSERT_EQ(restored_sink.pairs().size(), sink.pairs().size() - prefix_pairs);
  for (size_t i = 0; i < restored_sink.pairs().size(); ++i) {
    const ResultPair& got = restored_sink.pairs()[i];
    const ResultPair& want = sink.pairs()[prefix_pairs + i];
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.dot, want.dot);
    EXPECT_EQ(got.sim, want.sim);
  }
}

TEST(AutoTuneTest, ConfigurationNotesSurfaceIgnoredKnobs) {
  auto has_note = [](const std::vector<std::string>& notes,
                     const std::string& needle) {
    for (const std::string& n : notes) {
      if (n.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  {
    // STR-INV ignores num_threads.
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = IndexScheme::kInv;
    cfg.num_threads = 4;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // STR-L2AP ignores num_threads.
    EngineConfig cfg;
    cfg.framework = Framework::kStreaming;
    cfg.index = IndexScheme::kL2ap;
    cfg.num_threads = 2;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // MB ignores tiered storage.
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.index = IndexScheme::kL2;
    cfg.tiered.enabled = true;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "tiered"));
  }
  {
    // Everything in effect → no notes.
    EngineConfig cfg;  // STR-L2, 1 thread, untiered
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE((*engine)->configuration_notes().empty());
  }
  {
    // STR-L2 runs sequentially too → num_threads note.
    EngineConfig cfg;
    cfg.num_threads = 2;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_TRUE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
  {
    // MB fans window closes out over the threads → no num_threads note.
    EngineConfig cfg;
    cfg.framework = Framework::kMiniBatch;
    cfg.num_threads = 2;
    auto engine = SssjEngine::Make(cfg);
    ASSERT_TRUE(engine.ok());
    EXPECT_FALSE(has_note((*engine)->configuration_notes(), "num_threads"));
  }
}

}  // namespace
}  // namespace sssj
