// The remscore admission horizon that splits STR-L2's posting walks
// (L2AdmitHorizon, index/l2_phases.h). Past the horizon the generate scan
// admits no fresh candidate, so every posting it puts there must be one
// the per-posting check, rs2·e^{−λΔt} ≥ θ', rejects — under libm std::exp
// (the scalar path) and under kernels::DecayOne (the SIMD path) alike.
// The edge cases are the ones where the log-domain formula could go
// wrong: λ = 0, rs2 = 0, rs2 just below θ', and Δt = 0.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/types.h"
#include "index/kernels.h"
#include "index/l2_phases.h"
#include "util/random.h"

namespace sssj {
namespace {

constexpr Timestamp kNow = 1000.0;

// The unsplit walk's admission test for a posting stored at `ts`, with
// the decay each kernel path computes.
bool ScalarAdmits(double rs2, double theta, double lambda, Timestamp ts) {
  return BoundAtLeast(rs2 * std::exp(-lambda * (kNow - ts)), theta);
}
bool SimdAdmits(double rs2, double theta, double lambda, Timestamp ts) {
  return BoundAtLeast(rs2 * kernels::DecayOne(ts, kNow, lambda), theta);
}

// Splits a walk over postings at kNow − dt the way GenerateCandidates
// does, and checks it against the per-posting test: a posting past the
// horizon must be rejected on both kernel paths. Returns how many of the
// postings lay past it.
size_t ExpectSplitMatchesUnsplit(double rs2, double theta, double lambda,
                                 const std::vector<double>& dts) {
  const double horizon = L2AdmitHorizon(rs2, theta, lambda);
  EXPECT_FALSE(std::isnan(horizon))
      << "rs2=" << rs2 << " theta=" << theta << " lambda=" << lambda;
  size_t past = 0;
  for (double dt : dts) {
    const Timestamp ts = kNow - dt;
    if (!(kNow - ts > horizon)) continue;
    ++past;
    EXPECT_FALSE(ScalarAdmits(rs2, theta, lambda, ts))
        << "rs2=" << rs2 << " theta=" << theta << " lambda=" << lambda
        << " dt=" << kNow - ts << " horizon=" << horizon;
    EXPECT_FALSE(SimdAdmits(rs2, theta, lambda, ts))
        << "rs2=" << rs2 << " theta=" << theta << " lambda=" << lambda
        << " dt=" << kNow - ts << " horizon=" << horizon;
  }
  return past;
}

// BoundAtLeast's threshold.
double ThetaPrime(double theta) { return theta * (1.0 - kBoundSlack); }

const std::vector<double>& SomeDts() {
  static const std::vector<double> dts = {0.0, 1e-12, 1e-6, 0.5, 1.0,
                                          10.0, 100.0, 999.0};
  return dts;
}

TEST(L2AdmitHorizonTest, NoDecayGivesInfiniteHorizonsNeverNaN) {
  // λ = 0 (τ = ∞): the decay is exactly 1, so admission depends on rs2
  // alone — no split when rs2 can reach θ', everything past it otherwise.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(L2AdmitHorizon(1.0, 0.6, 0.0), inf);
  EXPECT_EQ(L2AdmitHorizon(0.6, 0.6, 0.0), inf);
  EXPECT_EQ(L2AdmitHorizon(0.5, 0.6, 0.0), -inf);
  for (double rs2 : {1.0, 0.6, 0.59, 0.0}) {
    const size_t past = ExpectSplitMatchesUnsplit(rs2, 0.6, 0.0, SomeDts());
    EXPECT_EQ(past, rs2 < 0.6 ? SomeDts().size() : 0u) << "rs2=" << rs2;
  }
}

TEST(L2AdmitHorizonTest, ZeroRemainingNormPutsEveryPostingPastTheSplit) {
  // log(0) = −∞: the horizon is −∞ for every λ, and the per-posting test
  // rejects every posting too (0·decay < θ').
  for (double lambda : {0.0, 1e-4, 1e-3, 0.5}) {
    EXPECT_EQ(L2AdmitHorizon(0.0, 0.5, lambda),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(ExpectSplitMatchesUnsplit(0.0, 0.5, lambda, SomeDts()),
              SomeDts().size());
  }
}

TEST(L2AdmitHorizonTest, RemainingNormJustBelowThresholdIsHandled) {
  for (double theta : {0.5, 0.9, 0.99}) {
    for (double lambda : {1e-4, 1e-2, 0.5}) {
      const double tp = ThetaPrime(theta);
      // Below θ' by more than the margin: a negative horizon, so even
      // Δt = 0 lies past the split — and the per-posting test rejects it.
      const double below = tp * (1.0 - 4e-9);
      EXPECT_LT(L2AdmitHorizon(below, theta, lambda), 0.0);
      EXPECT_EQ(ExpectSplitMatchesUnsplit(below, theta, lambda, SomeDts()),
                SomeDts().size());
      // One ulp below θ': inside the margin, so the split stays
      // conservative (Δt = 0 is walked in full) and still never wrong.
      const double ulp_below = std::nextafter(tp, 0.0);
      EXPECT_GT(L2AdmitHorizon(ulp_below, theta, lambda), 0.0);
      ExpectSplitMatchesUnsplit(ulp_below, theta, lambda, SomeDts());
      EXPECT_FALSE(ScalarAdmits(ulp_below, theta, lambda, kNow));
    }
  }
}

TEST(L2AdmitHorizonTest, ZeroElapsedTimeIsBeforeAnAdmittingHorizon) {
  // Δt = 0 (a posting from the arrival's own timestamp) with rs2 ≥ θ':
  // the per-posting test admits, so the posting must be before the split.
  for (double theta : {0.5, 0.7, 0.99}) {
    for (double rs2 : {ThetaPrime(theta), theta, 1.0}) {
      for (double lambda : {0.0, 1e-3, 0.5}) {
        ASSERT_TRUE(ScalarAdmits(rs2, theta, lambda, kNow));
        ASSERT_TRUE(SimdAdmits(rs2, theta, lambda, kNow));
        EXPECT_FALSE(kNow - kNow > L2AdmitHorizon(rs2, theta, lambda))
            << "rs2=" << rs2 << " theta=" << theta << " lambda=" << lambda;
      }
    }
  }
}

TEST(L2AdmitHorizonTest, PostingsNextToTheHorizonAgreeWithUnsplitWalk) {
  // Random (rs2, θ, λ) over the paper's range and beyond, with Δt placed
  // on and a few ulp either side of the horizon, where rounding matters.
  // The split may only be conservative there: it is exact to within the
  // 1e-9 log-domain margin, so postings a hair inside it are admitted.
  Rng rng(20261019);
  size_t past = 0;
  size_t admitted_inside = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const double theta = 0.05 + 0.949 * rng.NextDouble();
    const double lambda = std::pow(10.0, -5.0 + 5.0 * rng.NextDouble());
    const double rs2 = ThetaPrime(theta) + (1.0 - theta) * rng.NextDouble();
    const double horizon = L2AdmitHorizon(rs2, theta, lambda);
    ASSERT_FALSE(std::isnan(horizon));
    std::vector<double> dts;
    double dt = horizon;
    for (int step = 0; step < 4; ++step) dt = std::nextafter(dt, -1.0);
    for (int step = 0; step < 9; ++step) {
      if (dt >= 0.0) dts.push_back(dt);
      dt = std::nextafter(dt, 2.0 * horizon + 1.0);
    }
    past += ExpectSplitMatchesUnsplit(rs2, theta, lambda, dts);
    // Well inside the horizon (by 1e-6 relative in the log domain) the
    // per-posting test admits: the split costs nothing it should keep.
    const double inside = horizon - 1e-6 / lambda;
    if (inside >= 0.0 && ScalarAdmits(rs2, theta, lambda, kNow - inside)) {
      ++admitted_inside;
    }
  }
  EXPECT_GT(past, 10000u) << "the sweep must reach past the horizon";
  EXPECT_GT(admitted_inside, 10000u);
}

}  // namespace
}  // namespace sssj
