// Unit tests for src/common: rng, geometry, stats, strings, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "common/geometry.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stats_registry.hpp"
#include "common/strings.hpp"

namespace refer {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DefaultConstructionIsAFixedSeedNeverWallClock) {
  // Deflake guard: a default-constructed Rng is the golden-ratio constant,
  // so forgetting an explicit seed can never introduce run-to-run
  // nondeterminism.  (No code in this repo may seed from time or
  // std::random_device; this pins the fallback.)
  Rng defaulted;
  Rng explicit_seed(0x9e3779b97f4a7c15ULL);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(defaulted(), explicit_seed());
  Rng again;
  Rng once_more;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(again(), once_more());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 200000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(19);
  auto s = rng.sample_indices(50, 20);
  std::set<std::size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 20u);
  for (auto i : set) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(23);
  auto s = rng.sample_indices(10, 10);
  std::set<std::size_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto copy = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(copy.begin(), copy.end());
  EXPECT_EQ(a, b);
}

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {3, 4}), 25.0);
}

TEST(Geometry, WithinRangeInclusiveBoundary) {
  EXPECT_TRUE(within_range({0, 0}, {3, 4}, 5.0));
  EXPECT_FALSE(within_range({0, 0}, {3, 4}, 4.999));
}

TEST(Geometry, RectContains) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_TRUE(r.contains({5, 5}));
  EXPECT_TRUE(r.contains({0, 10}));
  EXPECT_FALSE(r.contains({10.01, 5}));
  EXPECT_DOUBLE_EQ(r.width(), 10.0);
  EXPECT_EQ(r.center(), (Point{5, 5}));
}

TEST(Geometry, ClampIntoRect) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_EQ(clamp({-5, 20}, r), (Point{0, 10}));
  EXPECT_EQ(clamp({3, 4}, r), (Point{3, 4}));
}

TEST(Geometry, Centroid) {
  EXPECT_EQ(centroid({{0, 0}, {2, 0}, {1, 3}}), (Point{1, 1}));
}

TEST(Geometry, HamiltonianRangeBoundMatchesPaperConstant) {
  // Paper Prop 3.2: r >= 0.8 b (the exact constant is sqrt(2/pi) ~ 0.7979).
  EXPECT_NEAR(hamiltonian_min_range(1.0), 0.7979, 1e-3);
  EXPECT_NEAR(hamiltonian_min_range(100.0) / 100.0, std::sqrt(2.0 / M_PI),
              1e-12);
}

TEST(Geometry, HamiltonianBoundsAreInverses) {
  const double r = 100.0;
  EXPECT_NEAR(hamiltonian_min_range(hamiltonian_max_cell_side(r)), r, 1e-9);
}

TEST(Stats, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(Stats, MeanAndVariance) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, Ci95MatchesHandComputation) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  // sd = sqrt(2.5), t(4) = 2.776, hw = 2.776 * sd / sqrt(5)
  EXPECT_NEAR(s.ci95_half_width(), 2.776 * std::sqrt(2.5) / std::sqrt(5.0),
              1e-9);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(3);
  Summary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, TCriticalTable) {
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(9), 2.262);
  EXPECT_DOUBLE_EQ(t_critical_95(1000), 1.96);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
}

TEST(Stats, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  Summary a, empty;
  a.add(1);
  a.add(3);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  Summary b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Stats, MeanOf) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, AllDigitsBelow) {
  EXPECT_TRUE(all_digits_below("0120", 3));
  EXPECT_FALSE(all_digits_below("0130", 3));
  EXPECT_FALSE(all_digits_below("01a0", 3));
}

std::string json_escape(std::string_view s) {
  std::string out;
  json_escape_append(out, s);
  return out;
}

TEST(JsonEscape, HandlesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(json_escape("\b\f\x1f"), "\\u0008\\u000c\\u001f");
  EXPECT_EQ(json_escape("/\x7f\xff"), "/\x7f\xff");  // passed through
  std::string appended = "k:";
  json_escape_append(appended, "\"");
  EXPECT_EQ(appended, "k:\\\"");
}

TEST(Logging, LevelRoundTrip) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_debug("suppressed %d", 1);  // must not crash, must be filtered
  set_log_level(prev);
}

TEST(Stats, GiniCoefficientClosedForms) {
  // Perfect evenness and the all-mass-on-one extreme ((n-1)/n).
  EXPECT_DOUBLE_EQ(gini_coefficient({1, 1, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({0, 0, 0, 1}), 0.75);
  // Hand-computed: sorted {1,2,3,4}, G = 2*(1+4+9+16)/(4*10) - 5/4.
  EXPECT_DOUBLE_EQ(gini_coefficient({4, 2, 1, 3}), 0.25);
  // Zeros count as unfairness: half the nodes idle, half equal.
  EXPECT_DOUBLE_EQ(gini_coefficient({0, 0, 2, 2}), 0.5);
  // Degenerate samples define 0, not NaN.
  EXPECT_DOUBLE_EQ(gini_coefficient({}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(gini_coefficient({5}), 0.0);
}

TEST(Stats, MaxMinRatioIgnoresIdleEntries) {
  EXPECT_DOUBLE_EQ(max_min_ratio({2, 4}), 2.0);
  // Idle (zero) elements carry no load to compare.
  EXPECT_DOUBLE_EQ(max_min_ratio({0, 3, 6}), 2.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({5}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({7, 7, 7}), 1.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({}), 0.0);
  EXPECT_DOUBLE_EQ(max_min_ratio({0, 0}), 0.0);
}

TEST(StatsRegistry, CountersAccumulateAndSnapshotSorted) {
  StatsRegistry registry;
  registry.counter("b.second").add(2);
  registry.counter("a.first").add();
  registry.counter("b.second").add(3);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_FALSE(snap[0].is_histogram);
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_EQ(snap[1].name, "b.second");
  EXPECT_EQ(snap[1].count, 5u);
}

TEST(StatsRegistry, ReferencesStayStableAcrossInsertions) {
  StatsRegistry registry;
  Counter& c = registry.counter("hot.path");
  Histogram& h = registry.histogram("hot.hist");
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i)).add(1);
    registry.histogram("hfiller." + std::to_string(i)).record(1.0);
  }
  c.add(7);
  h.record(1.0);
  EXPECT_EQ(registry.counter("hot.path").value(), 7u);
  EXPECT_EQ(registry.histogram("hot.hist").count(), 1u);
}

TEST(Histogram, ExactMomentsAndApproximateQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Geometric buckets: 4 per octave => ~19% relative resolution.
  EXPECT_NEAR(h.quantile(0.5), 50.0, 50.0 * 0.25);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 99.0 * 0.25);
  // Quantiles clamp to the exact extremes.
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST(Histogram, EmptyAndEdgeSamples) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  // Zero / negative / huge samples clamp into edge buckets, never UB.
  h.record(0.0);
  h.record(-5.0);
  h.record(1e300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
}

TEST(StatsRegistry, HistogramSnapshotCarriesQuantiles) {
  StatsRegistry registry;
  Histogram& h = registry.histogram("delay");
  for (int i = 0; i < 1000; ++i) h.record(10.0);
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_TRUE(snap[0].is_histogram);
  EXPECT_EQ(snap[0].count, 1000u);
  EXPECT_DOUBLE_EQ(snap[0].sum, 10000.0);
  EXPECT_NEAR(snap[0].p50, 10.0, 10.0 * 0.2);
  EXPECT_NEAR(snap[0].p99, 10.0, 10.0 * 0.2);
}

}  // namespace
}  // namespace refer
