// Tests of the expected-complexity formulas (the paper's "further work"
// question): exact closed forms validated against full enumeration at small
// n and against simulation at large n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/expectation.hpp"
#include "core/scenario.hpp"

namespace {

using namespace avglocal;

TEST(Expectation, ClosedFormMatchesFullEnumeration) {
  // E[avg radius] by formula == exact average over all (n-1)! arrangements.
  for (std::size_t n = 4; n <= 9; ++n) {
    const double formula = analysis::expected_largest_id_average(n);
    const double brute = analysis::brute_force_expected_average(n, false);
    EXPECT_NEAR(formula, brute, 1e-9) << "n = " << n;
  }
}

TEST(Expectation, UniverseAwareClosedFormMatchesFullEnumeration) {
  for (std::size_t n = 4; n <= 9; ++n) {
    const double formula = analysis::expected_universe_aware_average(n);
    const double brute = analysis::brute_force_expected_average(n, true);
    EXPECT_NEAR(formula, brute, 1e-9) << "n = " << n;
  }
}

TEST(Expectation, GrowsLikeHalfLogN) {
  // sum 1/(2d-1) = (ln n)/2 + O(1): the normalised value settles near 0.5.
  const double r1 = analysis::expected_largest_id_average(1u << 10) /
                    std::log(static_cast<double>(1u << 10));
  const double r2 = analysis::expected_largest_id_average(1u << 16) /
                    std::log(static_cast<double>(1u << 16));
  EXPECT_NEAR(r1, 0.5, 0.2);
  EXPECT_NEAR(r2, 0.5, 0.12);
  EXPECT_LT(std::abs(r2 - 0.5), std::abs(r1 - 0.5)) << "converging towards 1/2";
}

TEST(Expectation, UniverseAwareIsSmallerButSameOrder) {
  for (const std::size_t n : {64u, 1024u, 16384u}) {
    const double plain = analysis::expected_largest_id_average(n);
    const double aware = analysis::expected_universe_aware_average(n);
    EXPECT_LT(aware, plain) << "n = " << n;
    EXPECT_GT(aware, 0.25 * plain) << "same Theta(log n) order, n = " << n;
  }
}

/// The universe-aware closed form summed to its full depth, term by term:
/// the reference for the early exit in expected_universe_aware_average.
double uncapped_universe_aware_average(std::size_t n) {
  const std::size_t cover = n / 2;
  double total = 0.0;
  for (std::size_t x = 1; x <= n; ++x) {
    const std::size_t cap_x = std::min(cover, x / 2);
    double expectation = 0.0;
    double survive = 1.0;
    for (std::size_t d = 1; d <= cap_x; ++d) {
      if (d >= 2) {
        const std::size_t k = 2 * (d - 2);
        if (x - 1 < k + 2) {
          survive = 0.0;
        } else {
          survive *= static_cast<double>(x - 1 - k) / static_cast<double>(n - 1 - k);
          survive *= static_cast<double>(x - 2 - k) / static_cast<double>(n - 2 - k);
        }
      }
      expectation += survive;
    }
    total += expectation;
  }
  return total / static_cast<double>(n);
}

TEST(Expectation, UniverseAwareEarlyExitIsBitExact) {
  // Every n up to 300, then sizes around powers of two up to 4096: the
  // uncapped reference is cubic in n summed over a dense range.
  std::vector<std::size_t> ns;
  for (std::size_t n = 3; n <= 300; ++n) ns.push_back(n);
  for (const std::size_t n : {511u, 512u, 1000u, 1023u, 1024u, 2048u, 4095u, 4096u}) {
    ns.push_back(n);
  }
  for (const std::size_t n : ns) {
    const double fast = analysis::expected_universe_aware_average(n);
    const double reference = uncapped_universe_aware_average(n);
    EXPECT_EQ(std::memcmp(&fast, &reference, sizeof fast), 0)
        << "n = " << n << ": " << fast << " vs " << reference;
  }
}

/// Fixed-schedule largest-id sweep of one cycle size through the scenario
/// layer.
core::BatchedSweepPoint largest_id_cycle_point(std::size_t n, std::size_t trials,
                                               std::uint64_t seed) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = {n};
  spec.seed = seed;
  spec.schedule.max_trials = trials;
  return core::run_scenario(spec).points.at(0).point;
}

TEST(Expectation, ClassicMeasureIsDeterministic) {
  // Every permutation gives max radius ceil((n-1)/2): check by running the
  // engine over several random permutations.
  const std::size_t n = 40;
  const core::BatchedSweepPoint point = largest_id_cycle_point(n, 10, 3);
  EXPECT_EQ(point.max_worst, analysis::deterministic_largest_id_max(n));
  EXPECT_DOUBLE_EQ(point.max_mean,
                   static_cast<double>(analysis::deterministic_largest_id_max(n)));
}

TEST(Expectation, SimulationWithinSamplingError) {
  // Every size of experiment E11 at full scale.
  const std::size_t trials = 40;
  for (const std::size_t n : {16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    const core::BatchedSweepPoint point = largest_id_cycle_point(n, trials, 9);
    const double exact = analysis::expected_largest_id_average(n);
    const double stderr_mean = point.avg_sd / std::sqrt(static_cast<double>(trials));
    EXPECT_NEAR(point.avg_mean, exact, 5 * stderr_mean + 1e-6) << "n = " << n;
  }
}

}  // namespace
