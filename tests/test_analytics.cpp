// Unit tests for the streaming campaign analytics layer: the Aggregator's
// online counts and confidence intervals, and the determinism of the
// sequential stop rule under adversarial arrival orders. Everything here is
// synthetic — no simulator, no sockets — so the properties are tested in
// isolation from scheduling noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "campaign/analytics/aggregator.hpp"
#include "campaign/runner.hpp"
#include "util/stats.hpp"

using namespace gemfi;

namespace {

/// Deterministic synthetic record: a real seeded fault (so location/family
/// histograms see realistic variety) with a caller-chosen outcome.
campaign::ExperimentRecord make_rec(std::size_t index, apps::Outcome o) {
  campaign::ExperimentRecord rec;
  rec.index = index;
  rec.seed = campaign::experiment_seed(99, index);
  rec.result.fault = campaign::seeded_fault_any(99, index, 4096);
  rec.result.classification.outcome = o;
  rec.result.classification.metric = double(index % 37) / 7.0;
  rec.result.time_fraction = double(index % 100) / 100.0;
  rec.result.sim_ticks = 1000 + index;
  return rec;
}

/// A fixed multinomial-ish outcome pattern: deterministic, aperiodic enough
/// that no arrival order can reconstruct it by accident.
apps::Outcome outcome_at(std::size_t i) {
  const std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ull;
  return apps::Outcome((h >> 33) % apps::kNumOutcomes);
}

std::vector<campaign::ExperimentRecord> synthetic_campaign(std::size_t n) {
  std::vector<campaign::ExperimentRecord> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) recs.push_back(make_rec(i, outcome_at(i)));
  return recs;
}

}  // namespace

// --- parse_stop_ci ---

TEST(ParseStopCi, AcceptsEpsAndEpsAtConf) {
  const auto p1 = campaign::parse_stop_ci("0.01@0.99");
  EXPECT_DOUBLE_EQ(p1.eps, 0.01);
  EXPECT_DOUBLE_EQ(p1.confidence, 0.99);
  EXPECT_TRUE(p1.enabled());

  const auto p2 = campaign::parse_stop_ci("0.05");
  EXPECT_DOUBLE_EQ(p2.eps, 0.05);
  EXPECT_DOUBLE_EQ(p2.confidence, 0.99);  // default confidence
}

TEST(ParseStopCi, RejectsMalformedAndOutOfRange) {
  EXPECT_THROW(campaign::parse_stop_ci("half"), std::invalid_argument);
  EXPECT_THROW(campaign::parse_stop_ci(""), std::invalid_argument);
  EXPECT_THROW(campaign::parse_stop_ci("0.01@"), std::invalid_argument);
  EXPECT_THROW(campaign::parse_stop_ci("0.01@bad"), std::invalid_argument);
  EXPECT_THROW(campaign::parse_stop_ci("0.7"), std::invalid_argument);     // eps > 0.5
  EXPECT_THROW(campaign::parse_stop_ci("0"), std::invalid_argument);       // eps == 0
  EXPECT_THROW(campaign::parse_stop_ci("-0.01"), std::invalid_argument);
  EXPECT_THROW(campaign::parse_stop_ci("0.01@0.3"), std::invalid_argument);  // conf
  EXPECT_THROW(campaign::parse_stop_ci("0.01@1.0"), std::invalid_argument);
}

// --- Aggregator: online == post-hoc, independent of arrival order ---

TEST(Aggregator, OnlineTotalsMatchPostHocInAnyArrivalOrder) {
  const auto recs = synthetic_campaign(500);

  campaign::Aggregator in_order, reversed, shuffled;
  for (const auto& r : recs) in_order.add(r);
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) reversed.add(*it);
  auto perm = recs;
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(42));
  for (const auto& r : perm) shuffled.add(r);

  EXPECT_EQ(in_order.n(), recs.size());
  EXPECT_EQ(in_order.outcome_counts(), reversed.outcome_counts());
  EXPECT_EQ(in_order.outcome_counts(), shuffled.outcome_counts());
  EXPECT_EQ(in_order.location_counts(), shuffled.location_counts());
  EXPECT_EQ(in_order.family_counts(), shuffled.family_counts());
  EXPECT_EQ(in_order.timing_counts(), shuffled.timing_counts());

  // The no-stop summary covers the full record set, so it must be
  // byte-identical no matter how the records arrived.
  EXPECT_EQ(in_order.summary_json("summary"), reversed.summary_json("summary"));
  EXPECT_EQ(in_order.summary_json("summary"), shuffled.summary_json("summary"));
}

TEST(Aggregator, IntervalsMatchUtilStats) {
  campaign::Aggregator agg(campaign::StopPolicy{0.0, 0.95});
  for (std::size_t i = 0; i < 100; ++i)
    agg.add(make_rec(i, i < 25 ? apps::Outcome::SDC : apps::Outcome::NonPropagated));

  const auto w = agg.wilson(apps::Outcome::SDC);
  const auto w_ref = util::wilson_interval(25, 100, 0.95);
  EXPECT_DOUBLE_EQ(w.lo, w_ref.lo);
  EXPECT_DOUBLE_EQ(w.hi, w_ref.hi);

  const auto cp = agg.clopper_pearson(apps::Outcome::SDC);
  const auto cp_ref = util::clopper_pearson_interval(25, 100, 0.95);
  EXPECT_DOUBLE_EQ(cp.lo, cp_ref.lo);
  EXPECT_DOUBLE_EQ(cp.hi, cp_ref.hi);
}

// --- Aggregator: sequential stop determinism ---

// The stop rule must be a pure function of the fault list: same stop index
// and a byte-identical stopped_early summary whether records arrive in
// order, in reverse (one unlock cascade at the end), or block-swapped.
TEST(Aggregator, StopIndexAndSummaryIdenticalAcrossArrivalOrders) {
  // 10% SDC / 90% masked: tight proportions, so the rule fires well before
  // the campaign end even without the finite-population correction.
  const std::size_t n = 400;
  std::vector<campaign::ExperimentRecord> recs;
  for (std::size_t i = 0; i < n; ++i)
    recs.push_back(
        make_rec(i, i % 10 == 0 ? apps::Outcome::SDC : apps::Outcome::NonPropagated));

  const campaign::StopPolicy policy{0.05, 0.95};
  campaign::Aggregator in_order(policy, n), reversed(policy, n), swapped(policy, n);

  bool fired_in_order = false;
  for (const auto& r : recs) fired_in_order |= in_order.add(r);
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) reversed.add(*it);
  // Arrival pattern of a 2-worker race: odd indices first, then even.
  for (std::size_t i = 1; i < n; i += 2) swapped.add(recs[i]);
  for (std::size_t i = 0; i < n; i += 2) swapped.add(recs[i]);

  ASSERT_TRUE(fired_in_order);
  ASSERT_TRUE(in_order.should_stop());
  ASSERT_TRUE(reversed.should_stop());
  ASSERT_TRUE(swapped.should_stop());
  EXPECT_EQ(in_order.stop_index(), reversed.stop_index());
  EXPECT_EQ(in_order.stop_index(), swapped.stop_index());
  EXPECT_GE(in_order.stop_index(), policy.min_n);
  EXPECT_LT(in_order.stop_index(), n);

  EXPECT_EQ(in_order.summary_json("stopped_early"),
            reversed.summary_json("stopped_early"));
  EXPECT_EQ(in_order.summary_json("stopped_early"),
            swapped.summary_json("stopped_early"));
}

// Once the rule fires the stop prefix is frozen: later arrivals still count
// toward the order-independent totals but must not leak into the prefix
// counts (one late record can unlock a whole buffered run — absorbing past
// the stop index would make the summary depend on arrival order).
TEST(Aggregator, StopPrefixIsFrozenAtFirstSatisfyingK) {
  const std::size_t n = 400;
  const campaign::StopPolicy policy{0.05, 0.95};
  campaign::Aggregator agg(policy, n);
  std::size_t fired_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool was_stopped = agg.should_stop();
    const bool fired = agg.add(
        make_rec(i, i % 10 == 0 ? apps::Outcome::SDC : apps::Outcome::NonPropagated));
    if (was_stopped) {
      EXPECT_FALSE(fired) << "add() must return false while draining";
    }
    fired_count += fired ? 1 : 0;
  }
  ASSERT_TRUE(agg.should_stop());
  EXPECT_EQ(fired_count, 1u) << "exactly one add() satisfies the stop rule";
  std::uint64_t prefix_total = 0;
  for (const auto c : agg.prefix_counts()) prefix_total += c;
  EXPECT_EQ(prefix_total, agg.stop_index());
  EXPECT_EQ(agg.n(), n);  // totals still cover everything seen
}

// The finite-population correction: with the campaign plan as the population
// the rule certifies agreement with the full campaign's answer, so a 50/50
// split — hopeless for the infinite-population rule at eps=0.05 and n ~ 100
// — still stops once few enough experiments remain to move the proportions.
TEST(Aggregator, FinitePopulationCorrectionStopsWhatInfiniteCannot) {
  const std::size_t n = 110;
  const campaign::StopPolicy policy{0.05, 0.95};

  campaign::Aggregator finite(policy, n);   // knows the campaign size
  campaign::Aggregator infinite(policy, 0); // population unknown
  for (std::size_t i = 0; i < n; ++i) {
    const auto o = i % 2 ? apps::Outcome::SDC : apps::Outcome::NonPropagated;
    finite.add(make_rec(i, o));
    infinite.add(make_rec(i, o));
  }
  EXPECT_TRUE(finite.should_stop());
  EXPECT_LT(finite.stop_index(), n);
  EXPECT_FALSE(infinite.should_stop());
}
