// Checkpoint/restore of the STR-L2 index: a resumed job must produce
// exactly the output of an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/engine.h"
#include "index/stream_l2_index.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

using ::sssj::testing::ExpectSamePairSequence;
using ::sssj::testing::PairSet;
using ::sssj::testing::RandomStream;
using ::sssj::testing::RandomStreamSpec;
using ::sssj::testing::UnitVec;

Stream TestStream() {
  RandomStreamSpec spec;
  spec.n = 400;
  spec.dims = 30;
  spec.max_nnz = 6;
  spec.seed = 500;
  return RandomStream(spec);
}

TEST(CheckpointTest, IndexRoundTripResumesExactly) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;

  // Uninterrupted reference.
  StreamL2Index ref(params);
  CollectorSink ref_sink;
  for (const StreamItem& item : stream) ref.ProcessArrival(item, &ref_sink);

  // Run half, serialize, restore into a fresh index, run the rest.
  StreamL2Index first(params);
  CollectorSink sink_a;
  for (size_t i = 0; i < cut; ++i) first.ProcessArrival(stream[i], &sink_a);
  std::stringstream buffer;
  ASSERT_TRUE(first.Serialize(buffer));

  StreamL2Index second(params);
  ASSERT_TRUE(second.Deserialize(buffer));
  EXPECT_EQ(second.live_posting_entries(), first.live_posting_entries());
  EXPECT_EQ(second.residual_count(), first.residual_count());
  CollectorSink sink_b;
  for (size_t i = cut; i < stream.size(); ++i) {
    second.ProcessArrival(stream[i], &sink_b);
  }

  std::vector<ResultPair> resumed = sink_a.pairs();
  resumed.insert(resumed.end(), sink_b.pairs().begin(), sink_b.pairs().end());
  EXPECT_EQ(PairSet(resumed), PairSet(ref_sink.pairs()));
  EXPECT_EQ(resumed.size(), ref_sink.pairs().size());
}

TEST(CheckpointTest, DeserializeRejectsParameterMismatch) {
  DecayParams a, b;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &a));
  ASSERT_TRUE(DecayParams::Make(0.7, 0.02, &b));
  StreamL2Index index_a(a);
  CollectorSink sink;
  index_a.ProcessArrival(
      ::sssj::testing::Item(0, 0.0, UnitVec({{1, 1.0}})), &sink);
  std::stringstream buffer;
  ASSERT_TRUE(index_a.Serialize(buffer));
  StreamL2Index index_b(b);
  std::string error;
  EXPECT_FALSE(index_b.Deserialize(buffer, &error));
  EXPECT_EQ(index_b.live_posting_entries(), 0u);  // cleared on failure
  EXPECT_NE(error.find("parameter mismatch"), std::string::npos) << error;
}

TEST(CheckpointTest, DeserializeRejectsGarbage) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  StreamL2Index index(params);
  std::stringstream buffer("definitely not a checkpoint");
  std::string error;
  EXPECT_FALSE(index.Deserialize(buffer, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

// Serializes a small populated index to a string (error-path helper).
std::string SerializedCheckpoint(const DecayParams& params) {
  StreamL2Index index(params);
  CollectorSink sink;
  const Stream stream = TestStream();
  for (size_t i = 0; i < 50; ++i) index.ProcessArrival(stream[i], &sink);
  std::stringstream buffer;
  EXPECT_TRUE(index.Serialize(buffer));
  return buffer.str();
}

TEST(CheckpointTest, DeserializeRejectsTruncationAtEveryStage) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  const std::string full = SerializedCheckpoint(params);
  ASSERT_GT(full.size(), 64u);
  // Cut at a spread of prefixes: header, posting columns, residuals.
  for (const size_t cut : {size_t{4}, size_t{10}, size_t{20}, size_t{40},
                           full.size() / 2, full.size() - 1}) {
    StreamL2Index index(params);
    std::stringstream buffer(full.substr(0, cut));
    std::string error;
    EXPECT_FALSE(index.Deserialize(buffer, &error)) << "cut=" << cut;
    EXPECT_FALSE(error.empty()) << "cut=" << cut;
    EXPECT_EQ(index.live_posting_entries(), 0u) << "cut=" << cut;
  }
  // The untampered stream still loads, so the cuts are what failed.
  StreamL2Index index(params);
  std::stringstream buffer(full);
  EXPECT_TRUE(index.Deserialize(buffer));
}

TEST(CheckpointTest, DeserializeRejectsStaleFormatVersion) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  std::string stale = SerializedCheckpoint(params);
  stale[7] = '1';  // magic "SSSJCKP2" -> "SSSJCKP1" (the v1 seed format)
  StreamL2Index index(params);
  std::stringstream buffer(stale);
  std::string error;
  EXPECT_FALSE(index.Deserialize(buffer, &error));
  EXPECT_NE(error.find("stale"), std::string::npos) << error;
}

TEST(CheckpointTest, DeserializeRejectsSchemeMismatch) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  std::string tampered = SerializedCheckpoint(params);
  // Layout: magic[8], u32 version, u8 scheme tag at offset 12.
  tampered[12] = static_cast<char>(99);
  StreamL2Index index(params);
  std::stringstream buffer(tampered);
  std::string error;
  EXPECT_FALSE(index.Deserialize(buffer, &error));
  EXPECT_NE(error.find("scheme"), std::string::npos) << error;
}

TEST(CheckpointTest, EngineLoadRejectsGarbageWithClearError) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  const std::string path = ::testing::TempDir() + "/sssj_garbage.ckp";
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a checkpoint at all, not even close";
  }
  auto engine = *SssjEngine::Make(cfg);
  const Status status = engine->LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("not a sssj engine checkpoint"),
            std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, EngineLoadReportsParameterMismatch) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const std::string path = ::testing::TempDir() + "/sssj_mismatch.ckp";
  {
    CollectorSink sink;
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (size_t i = 0; i < 50; ++i) {
      engine->Push(stream[i].ts, stream[i].vec);
    }
    const Status saved = engine->SaveCheckpoint(path);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  cfg.theta = 0.8;  // different engine params
  auto engine = *SssjEngine::Make(cfg);
  const Status status = engine->LoadCheckpoint(path);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("parameter mismatch"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, EngineRoundTripThroughFile) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 3;
  const std::string path = ::testing::TempDir() + "/sssj_engine.ckp";

  // Reference.
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  for (const StreamItem& item : stream) {
    ref->Push(item.ts, item.vec);
  }

  // Interrupted + resumed.
  CollectorSink sink;
  {
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (size_t i = 0; i < cut; ++i) {
      engine->Push(stream[i].ts, stream[i].vec);
    }
    const Status saved = engine->SaveCheckpoint(path);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  {
    auto engine = *SssjEngine::Make(cfg, &sink);
    const Status loaded = engine->LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
    EXPECT_EQ(engine->next_id(), cut);
    // Time order is still enforced after restore, with the precise reason.
    const Status regressed =
        engine->Push(stream[cut].ts - 100.0, stream[cut].vec);
    EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(regressed.message().find("timestamp regression"),
              std::string::npos);
    for (size_t i = cut; i < stream.size(); ++i) {
      ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    }
  }
  EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
  std::remove(path.c_str());
}

// num_threads does not change STR-L2, so such an engine checkpoints like
// any other: the resumed run continues the uninterrupted one bit for bit.
TEST(CheckpointTest, StrL2WithThreadsResumesBitwise) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.num_threads = 4;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 3;

  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  EXPECT_EQ(ref->PushBatch(stream).accepted, stream.size());

  CollectorSink sink;
  std::stringstream checkpoint;
  {
    auto engine = *SssjEngine::Make(cfg, &sink);
    for (size_t i = 0; i < cut; ++i) {
      ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
    }
    const Status saved = engine->SaveCheckpoint(checkpoint);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }
  auto engine = *SssjEngine::Make(cfg, &sink);
  const Status loaded = engine->LoadCheckpoint(checkpoint);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(engine->next_id(), cut);
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  EXPECT_FALSE(ref_sink.pairs().empty()) << "vacuous test stream";
  ExpectSamePairSequence(sink.pairs(), ref_sink.pairs());
}

TEST(CheckpointTest, FailedEngineLoadLeavesLiveStateUntouched) {
  // A checkpoint that validates its header but turns out to be truncated
  // mid-record must leave the live engine exactly as it was: same index,
  // same id counter, same clock — replaying the rest of the stream still
  // yields the uninterrupted output.
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  cfg.normalize_inputs = false;
  const Stream stream = TestStream();
  const size_t cut = stream.size() / 2;
  const std::string path = ::testing::TempDir() + "/sssj_truncated.ckp";

  // Uninterrupted reference.
  CollectorSink ref_sink;
  auto ref = *SssjEngine::Make(cfg, &ref_sink);
  for (const StreamItem& item : stream) ref->Push(item.ts, item.vec);

  // Live engine: run half, save, truncate the file on disk, then attempt
  // to load the damaged checkpoint into the SAME live engine.
  CollectorSink sink;
  auto engine = *SssjEngine::Make(cfg, &sink);
  for (size_t i = 0; i < cut; ++i) {
    engine->Push(stream[i].ts, stream[i].vec);
  }
  const Status saved = engine->SaveCheckpoint(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  {
    std::ifstream in(path, std::ios::binary);
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(full.size(), 128u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(),
              static_cast<std::streamsize>(full.size() / 2));  // mid-record
  }
  const VectorId id_before = engine->next_id();
  const Status loaded = engine->LoadCheckpoint(path);
  EXPECT_EQ(loaded.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(loaded.message().empty());
  EXPECT_EQ(engine->next_id(), id_before);

  // The live engine keeps producing the uninterrupted run's output.
  for (size_t i = cut; i < stream.size(); ++i) {
    ASSERT_TRUE(engine->Push(stream[i].ts, stream[i].vec).ok());
  }
  EXPECT_EQ(PairSet(sink.pairs()), PairSet(ref_sink.pairs()));
  EXPECT_EQ(sink.pairs().size(), ref_sink.pairs().size());
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnsupportedConfigsRefuseWithUnimplemented) {
  EngineConfig cfg;
  cfg.framework = Framework::kMiniBatch;
  cfg.index = IndexScheme::kL2;
  auto mb = *SssjEngine::Make(cfg);
  const Status mb_status = mb->SaveCheckpoint("/tmp/x.ckp");
  EXPECT_EQ(mb_status.code(), StatusCode::kUnimplemented);
  EXPECT_NE(mb_status.message().find("STR-L2 only"),
            std::string::npos);

  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2ap;
  auto l2ap = *SssjEngine::Make(cfg);
  EXPECT_EQ(l2ap->SaveCheckpoint("/tmp/x.ckp").code(),
            StatusCode::kUnimplemented);
}

TEST(CheckpointTest, MissingAndUnwritablePathsReportPreciseCodes) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  auto engine = *SssjEngine::Make(cfg);
  const Status missing = engine->LoadCheckpoint("/nonexistent/sssj.ckp");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_NE(missing.message().find("cannot open"), std::string::npos);
  const Status unwritable = engine->SaveCheckpoint("/nonexistent/dir/s.ckp");
  EXPECT_EQ(unwritable.code(), StatusCode::kIoError);
  EXPECT_NE(unwritable.message().find("for writing"), std::string::npos);
}

TEST(CheckpointTest, EmptyIndexRoundTrips) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.5, 0.1, &params));
  StreamL2Index a(params), b(params);
  std::stringstream buffer;
  ASSERT_TRUE(a.Serialize(buffer));
  ASSERT_TRUE(b.Deserialize(buffer));
  EXPECT_EQ(b.live_posting_entries(), 0u);
}


// ---- adversarial loader coverage (fuzz-harness twins) ----
// These pin the exact behaviors fuzz/fuzz_checkpoint.cc asserts
// statistically: every byte-level truncation and every tampered length
// field must reject with a named error, bounded memory, and no state
// half-applied.

TEST(CheckpointTest, DeserializeRejectsTruncationAtEveryByteBoundary) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  // Small stream so the full O(bytes) truncation sweep stays fast while
  // still crossing every record type (header, list header, all four
  // posting columns, residual records, residual prefixes).
  StreamL2Index src(params);
  CollectorSink sink;
  const Stream stream = TestStream();
  for (size_t i = 0; i < 12; ++i) src.ProcessArrival(stream[i], &sink);
  std::stringstream buffer;
  ASSERT_TRUE(src.Serialize(buffer));
  const std::string full = buffer.str();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    StreamL2Index index(params);
    std::stringstream truncated(full.substr(0, cut));
    std::string error;
    ASSERT_FALSE(index.Deserialize(truncated, &error)) << "cut=" << cut;
    ASSERT_FALSE(error.empty()) << "cut=" << cut;
    ASSERT_EQ(index.live_posting_entries(), 0u) << "cut=" << cut;
    ASSERT_EQ(index.residual_count(), 0u) << "cut=" << cut;
  }
  StreamL2Index index(params);
  std::stringstream whole(full);
  EXPECT_TRUE(index.Deserialize(whole));  // only the cuts were at fault
}

// Container layout constants shared by the tamper tests below (see
// Serialize): magic[8], u32 version, u8 scheme, f64 theta, f64 lambda,
// u64 live, u64 num_lists, then per list { u32 dim, u64 len, columns }.
constexpr size_t kNumListsOffset = 8 + 4 + 1 + 8 + 8 + 8;
constexpr size_t kFirstListLenOffset = kNumListsOffset + 8 + 4;

TEST(CheckpointTest, DeserializeRejectsOversizedDeclaredColumnLength) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  std::string tampered = SerializedCheckpoint(params);
  ASSERT_GT(tampered.size(), kFirstListLenOffset + 8);
  // Declare ~2^64 entries in the first posting list. The loader reads
  // columns in bounded chunks, so this must fail on the missing bytes
  // after at most one chunk — not reserve 2^64 elements up front.
  std::memset(&tampered[kFirstListLenOffset], 0xFF, 8);
  StreamL2Index index(params);
  std::stringstream buffer(tampered);
  std::string error;
  EXPECT_FALSE(index.Deserialize(buffer, &error));
  EXPECT_NE(error.find("posting columns"), std::string::npos) << error;
  EXPECT_EQ(index.live_posting_entries(), 0u);
}

TEST(CheckpointTest, DeserializeRejectsOversizedDeclaredListCount) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  std::string tampered = SerializedCheckpoint(params);
  std::memset(&tampered[kNumListsOffset], 0xFF, 8);
  StreamL2Index index(params);
  std::stringstream buffer(tampered);
  std::string error;
  EXPECT_FALSE(index.Deserialize(buffer, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(index.live_posting_entries(), 0u);
}

TEST(CheckpointTest, DeserializeRejectsOversizedResidualPrefixLength) {
  DecayParams params;
  ASSERT_TRUE(DecayParams::Make(0.6, 0.02, &params));
  // Hand-built minimal container: valid header, zero posting lists, one
  // residual record whose declared prefix length is ~2^64 with no bytes
  // behind it. Exercises the residual-path length cap directly.
  std::stringstream forged;
  forged.write("SSSJCKP2", 8);
  const uint32_t version = 2;
  const uint8_t scheme = 2;
  const uint64_t live = 0, num_lists = 0, num_residuals = 1;
  forged.write(reinterpret_cast<const char*>(&version), sizeof(version));
  forged.write(reinterpret_cast<const char*>(&scheme), sizeof(scheme));
  forged.write(reinterpret_cast<const char*>(&params.theta), sizeof(double));
  forged.write(reinterpret_cast<const char*>(&params.lambda), sizeof(double));
  forged.write(reinterpret_cast<const char*>(&live), sizeof(live));
  forged.write(reinterpret_cast<const char*>(&num_lists), sizeof(num_lists));
  forged.write(reinterpret_cast<const char*>(&num_residuals),
               sizeof(num_residuals));
  const uint64_t id = 7;
  const double ts = 1.0, q = 0.5, vm = 0.5, sum = 1.0;
  const uint32_t nnz = 1;
  const uint64_t prefix_len = ~uint64_t{0};
  forged.write(reinterpret_cast<const char*>(&id), sizeof(id));
  forged.write(reinterpret_cast<const char*>(&ts), sizeof(ts));
  forged.write(reinterpret_cast<const char*>(&q), sizeof(q));
  forged.write(reinterpret_cast<const char*>(&vm), sizeof(vm));
  forged.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
  forged.write(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  forged.write(reinterpret_cast<const char*>(&prefix_len),
               sizeof(prefix_len));

  StreamL2Index index(params);
  std::string error;
  EXPECT_FALSE(index.Deserialize(forged, &error));
  EXPECT_NE(error.find("residual prefix"), std::string::npos) << error;
  EXPECT_EQ(index.residual_count(), 0u);
}

TEST(CheckpointTest, EngineLoadRejectsEveryTruncationWithDataLoss) {
  EngineConfig cfg;
  cfg.framework = Framework::kStreaming;
  cfg.index = IndexScheme::kL2;
  cfg.theta = 0.6;
  cfg.lambda = 0.02;
  auto src = *SssjEngine::Make(cfg);
  const Stream stream = TestStream();
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(src->Push(stream[i].ts, stream[i].vec).ok());
  }
  std::ostringstream saved;
  ASSERT_TRUE(src->SaveCheckpoint(saved).ok());
  const std::string full = saved.str();

  for (size_t cut = 0; cut < full.size(); ++cut) {
    auto engine = *SssjEngine::Make(cfg);
    std::istringstream truncated(full.substr(0, cut));
    const Status st = engine->LoadCheckpoint(truncated);
    ASSERT_EQ(st.code(), StatusCode::kDataLoss) << "cut=" << cut;
    ASSERT_FALSE(st.message().empty()) << "cut=" << cut;
    // Swap-on-success: the failed load must leave the engine pristine.
    ASSERT_TRUE(engine->Push(stream[0].ts, stream[0].vec).ok())
        << "cut=" << cut;
  }
  auto engine = *SssjEngine::Make(cfg);
  std::istringstream whole(full);
  EXPECT_TRUE(engine->LoadCheckpoint(whole).ok());
}

}  // namespace
}  // namespace sssj
