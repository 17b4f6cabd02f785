// Tests of the core measurement framework and a smoke run of every
// experiment in the suite.
#include <gtest/gtest.h>

#include "algo/largest_id.hpp"
#include "core/experiments.hpp"
#include "core/measure.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

TEST(Measure, ExtractsBothMeasures) {
  local::RunResult run;
  run.radii = {0, 1, 2, 3};
  run.outputs = {0, 0, 0, 1};
  const auto m = core::measure(run);
  EXPECT_EQ(m.n, 4u);
  EXPECT_EQ(m.sum_radius, 6u);
  EXPECT_EQ(m.max_radius, 3u);
  EXPECT_DOUBLE_EQ(m.avg_radius, 1.5);
  EXPECT_DOUBLE_EQ(core::measure_gap(m), 2.0);
}

TEST(Measure, GapOfZeroRadiiIsOne) {
  local::RunResult run;
  run.radii = {0, 0};
  EXPECT_DOUBLE_EQ(core::measure_gap(core::measure(run)), 1.0);
}

TEST(Runner, AssignmentRunMatchesEngine) {
  const auto g = graph::make_cycle(32);
  const auto ids = graph::IdAssignment::reversed(32);
  const auto m = core::run_assignment(g, ids, algo::make_largest_id_view());
  EXPECT_EQ(m.n, 32u);
  EXPECT_EQ(m.max_radius, 16u);  // the max vertex must close the ball
}

TEST(Runner, SweepInvariants) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = {24};
  spec.seed = 9;
  spec.schedule.max_trials = 8;
  const auto points = core::run_scenario(spec).points;
  ASSERT_EQ(points.size(), 1u);
  const auto& p = points[0].point;
  EXPECT_EQ(p.n, 24u);
  EXPECT_EQ(p.trials, 8u);
  EXPECT_LE(p.avg_mean, p.avg_worst + 1e-12);
  EXPECT_LE(p.avg_worst, static_cast<double>(p.max_worst));
  EXPECT_EQ(p.max_worst, 12u) << "the leader always pays the closure radius";
}

TEST(Experiments, SmokeRunAllAtTinyScale) {
  core::ExperimentScale scale;
  scale.factor = 0.05;
  for (const auto& experiment : core::all_experiments()) {
    const auto result = experiment(scale);
    EXPECT_FALSE(result.id.empty());
    EXPECT_FALSE(result.tables.empty()) << result.id;
    const std::string rendered = core::render(result);
    EXPECT_NE(rendered.find(result.title), std::string::npos);
    // Self-checking columns render "NO" / "budget" only on failure.
    EXPECT_EQ(rendered.find(" NO "), std::string::npos) << result.id << "\n" << rendered;
  }
}

TEST(Experiments, ScaleHelper) {
  core::ExperimentScale full;
  EXPECT_EQ(full.at_least(100, 10), 100u);
  core::ExperimentScale tiny;
  tiny.factor = 0.01;
  EXPECT_EQ(tiny.at_least(100, 10), 10u);
}

}  // namespace
