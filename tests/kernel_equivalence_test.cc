// Kernel equivalence suite, engine level: kernel=simd must emit the same
// pair set as kernel=scalar on the WebSpamLike profile for every scheme,
// with scores equal within 1e-9 relative. For the configurations whose
// kernels are pure lane-wise multiplies (all MB schemes, STR-INV) the
// output must be bit-identical; only the STR-L2/L2AP generate phases use
// the polynomial exp and get the tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "core/engine.h"
#include "data/profiles.h"
#include "tests/test_util.h"

namespace sssj {
namespace {

std::vector<ResultPair> RunEngine(Framework fw, IndexScheme ix,
                                  KernelMode kernel, int threads,
                                  const Stream& stream, double theta = 0.7,
                                  double lambda = 0.01) {
  EngineConfig cfg;
  cfg.framework = fw;
  cfg.index = ix;
  cfg.theta = theta;
  cfg.lambda = lambda;
  cfg.kernel = kernel;
  cfg.num_threads = threads;
  cfg.normalize_inputs = false;  // profile streams are unit already
  CollectorSink sink;
  auto engine_or = SssjEngine::Make(cfg, &sink);
  EXPECT_TRUE(engine_or.ok()) << engine_or.status().ToString();
  auto engine = *std::move(engine_or);
  engine->PushBatch(stream);
  engine->Flush();
  return sink.pairs();
}

// Canonical order for comparing runs whose emission order legitimately
// differs (the sharded engine emits shard-major).
std::vector<ResultPair> Sorted(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const ResultPair& x, const ResultPair& y) {
              return std::tie(x.a, x.b, x.ta, x.tb) <
                     std::tie(y.a, y.b, y.ta, y.tb);
            });
  return pairs;
}

void ExpectSamePairs(const std::vector<ResultPair>& scalar_run,
                     const std::vector<ResultPair>& simd_run,
                     bool expect_bit_identical, const char* what) {
  // Duplicates would show up as a length mismatch; every field of every
  // pair is compared, not just the similarity.
  const auto s = Sorted(scalar_run);
  const auto v = Sorted(simd_run);
  ASSERT_EQ(s.size(), v.size()) << what << ": pair-set size differs";
  for (size_t i = 0; i < s.size(); ++i) {
    ASSERT_EQ(s[i].a, v[i].a) << what << ": pair sets differ at " << i;
    ASSERT_EQ(s[i].b, v[i].b) << what << ": pair sets differ at " << i;
    EXPECT_EQ(s[i].ta, v[i].ta) << what << ": ta drifted at " << i;
    EXPECT_EQ(s[i].tb, v[i].tb) << what << ": tb drifted at " << i;
    if (expect_bit_identical) {
      EXPECT_EQ(s[i].dot, v[i].dot)
          << what << ": dot drifted for (" << s[i].a << "," << s[i].b << ")";
      EXPECT_EQ(s[i].sim, v[i].sim)
          << what << ": sim drifted for (" << s[i].a << "," << s[i].b << ")";
    } else {
      EXPECT_NEAR(s[i].dot, v[i].dot, 1e-9 * s[i].dot)
          << what << ": dot outside tolerance for (" << s[i].a << ","
          << s[i].b << ")";
      EXPECT_NEAR(s[i].sim, v[i].sim, 1e-9 * s[i].sim)
          << what << ": sim outside tolerance for (" << s[i].a << ","
          << s[i].b << ")";
    }
  }
}

class KernelEquivalenceTest : public ::testing::Test {
 protected:
  static const Stream& WebSpamStream() {
    static const Stream* stream = new Stream(
        GenerateProfile(DatasetProfile::kWebSpam, /*scale=*/0.12,
                        /*seed=*/7));
    return *stream;
  }
};

// MB: every kernel is a lane-wise multiply — bit-identical output.
TEST_F(KernelEquivalenceTest, MiniBatchAllSchemesBitIdentical) {
  const Stream& stream = WebSpamStream();
  for (IndexScheme ix : {IndexScheme::kInv, IndexScheme::kAp,
                         IndexScheme::kL2ap, IndexScheme::kL2}) {
    const auto scalar = RunEngine(Framework::kMiniBatch, ix,
                                  KernelMode::kScalar, 1, stream);
    const auto simd = RunEngine(Framework::kMiniBatch, ix,
                                KernelMode::kSimd, 1, stream);
    EXPECT_FALSE(scalar.empty()) << "degenerate test input";
    ExpectSamePairs(scalar, simd, /*expect_bit_identical=*/true,
                    ToString(ix));
  }
}

// STR-INV: decay is applied per candidate at verification (scalar on both
// paths); the scan kernel is a multiply — bit-identical output.
TEST_F(KernelEquivalenceTest, StreamingInvBitIdentical) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kInv,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kInv,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, /*expect_bit_identical=*/true, "STR-INV");
}

// STR-L2 and STR-L2AP: the generate phase's decay column uses the
// vectorized exp — same pair set, scores within 1e-9 relative.
TEST_F(KernelEquivalenceTest, StreamingL2SamePairSetWithinTolerance) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, /*expect_bit_identical=*/false, "STR-L2");
}

// Short horizon: RCV1-like items 0.01 apart at λ = 0.5 (τ ≈ 100 items),
// so about three quarters of every walk lies past the remscore admission
// horizon, where the generate scan admits nothing new. The split's
// log-domain margin must cover DecayOne's error as it covers std::exp's.
TEST_F(KernelEquivalenceTest, StreamingL2ShortHorizonSamePairSet) {
  Stream stream = GenerateProfile(DatasetProfile::kRcv1, /*scale=*/0.24,
                                  /*seed=*/7);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].ts = 0.01 * static_cast<Timestamp>(i);
  }
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                                KernelMode::kScalar, 1, stream, 0.6, 0.5);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kL2,
                              KernelMode::kSimd, 1, stream, 0.6, 0.5);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, /*expect_bit_identical=*/false,
                  "STR-L2 short horizon");
}

TEST_F(KernelEquivalenceTest, StreamingL2apSamePairSetWithinTolerance) {
  const Stream& stream = WebSpamStream();
  const auto scalar = RunEngine(Framework::kStreaming, IndexScheme::kL2ap,
                                KernelMode::kScalar, 1, stream);
  const auto simd = RunEngine(Framework::kStreaming, IndexScheme::kL2ap,
                              KernelMode::kSimd, 1, stream);
  EXPECT_FALSE(scalar.empty()) << "degenerate test input";
  ExpectSamePairs(scalar, simd, /*expect_bit_identical=*/false, "STR-L2AP");
}

// MB windows fan out across threads with bit-identical output — the simd
// kernels must preserve that determinism bar.
TEST_F(KernelEquivalenceTest, MiniBatchSimdThreadCountInvariant) {
  const Stream& stream = WebSpamStream();
  const auto seq = RunEngine(Framework::kMiniBatch, IndexScheme::kL2,
                             KernelMode::kSimd, 1, stream);
  const auto fanned = RunEngine(Framework::kMiniBatch, IndexScheme::kL2,
                                KernelMode::kSimd, 4, stream);
  ExpectSamePairs(seq, fanned, /*expect_bit_identical=*/true, "MB-simd");
}

}  // namespace
}  // namespace sssj
