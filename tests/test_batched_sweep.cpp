// Tests of the batched sweep subsystem: exactness of the geometry-replay
// engine against per-trial runs, bit-identical statistics against a
// per-trial fold of run_assignment over the sweep's own id streams, and
// bit-identical shard merge through the JSON artefact round-trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/largest_id.hpp"
#include "algo/mis_ring.hpp"
#include "core/batched_sweep.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace avglocal;

std::vector<graph::IdAssignment> random_batch(std::size_t n, std::size_t trials,
                                              std::uint64_t seed) {
  std::vector<graph::IdAssignment> batch;
  batch.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    support::Xoshiro256 rng(support::derive_seed(seed, t));
    batch.push_back(graph::IdAssignment::random(n, rng));
  }
  return batch;
}

/// Collects per-(trial, vertex) results of run_views_batched into dense
/// tables comparable against per-trial run_views calls.
struct Collected {
  std::vector<std::vector<std::int64_t>> outputs;  // [trial][vertex]
  std::vector<std::vector<std::size_t>> radii;
};

Collected collect_batched(const graph::Graph& g, std::span<const graph::IdAssignment> batch,
                          const local::ViewAlgorithmFactory& factory,
                          const local::ViewEngineOptions& options) {
  Collected out;
  out.outputs.assign(batch.size(), std::vector<std::int64_t>(g.vertex_count(), 0));
  out.radii.assign(batch.size(), std::vector<std::size_t>(g.vertex_count(), 0));
  local::run_views_batched(g, batch, factory, options,
                           [&](std::size_t, std::size_t trial, graph::Vertex v,
                               std::int64_t output, std::size_t radius) {
                             out.outputs[trial][v] = output;
                             out.radii[trial][v] = radius;
                           });
  return out;
}

void expect_batched_matches_per_trial(const graph::Graph& g,
                                      const local::ViewAlgorithmFactory& factory,
                                      local::ViewSemantics semantics, std::size_t trials) {
  const auto batch = random_batch(g.vertex_count(), trials, /*seed=*/911);
  local::ViewEngineOptions options;
  options.semantics = semantics;
  const Collected batched = collect_batched(g, batch, factory, options);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const local::RunResult run = local::run_views(g, batch[t], factory, options);
    EXPECT_EQ(run.outputs, batched.outputs[t]) << "trial " << t;
    EXPECT_EQ(run.radii, batched.radii[t]) << "trial " << t;
  }
}

TEST(RunViewsBatched, MatchesPerTrialRunsOnCycle) {
  const auto g = graph::make_cycle(33);
  expect_batched_matches_per_trial(g, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 6);
  expect_batched_matches_per_trial(g, algo::make_largest_id_view(),
                                   local::ViewSemantics::kFloodingKnowledge, 6);
}

TEST(RunViewsBatched, MatchesPerTrialRunsOnIrregularGraphs) {
  support::Xoshiro256 rng(7);
  const auto tree = graph::make_random_tree(40, rng);
  expect_batched_matches_per_trial(tree, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 5);
  const auto gnp = graph::make_gnp_connected(48, 0.12, rng);
  expect_batched_matches_per_trial(gnp, algo::make_largest_id_view(),
                                   local::ViewSemantics::kInducedBall, 5);
  expect_batched_matches_per_trial(gnp, algo::make_largest_id_view(),
                                   local::ViewSemantics::kFloodingKnowledge, 5);
}

TEST(RunViewsBatched, ColeVishkinUsesPortsAndStillMatches) {
  // cv3 walks the ring through the view's port table, so this pins the
  // replayed ports (not just ids and coverage) to the grower's.
  const std::size_t n = 64;
  const auto g = graph::make_cycle(n);
  expect_batched_matches_per_trial(g, algo::make_cole_vishkin_view(n),
                                   local::ViewSemantics::kInducedBall, 4);
}

/// Fingerprints the *entire* view (radius, ids, dist, every port slot
/// including unknown ones, coverage) at every radius until an id-derived
/// stopping radius. If a replayed view deviated from the grower's in any
/// field at any radius, per-trial and batched fingerprints would differ.
class ViewFingerprint final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    hash_ = mix(hash_, static_cast<std::uint64_t>(view.radius));
    for (std::size_t i = 0; i < view.size(); ++i) {
      hash_ = mix(hash_, view.ids[i]);
      hash_ = mix(hash_, static_cast<std::uint64_t>(view.dist[i]));
      for (const auto target : view.ports[i]) hash_ = mix(hash_, target);
    }
    hash_ = mix(hash_, view.covers_graph ? 1 : 2);
    const auto stop = static_cast<std::size_t>(view.root_id() % 5);
    if (view.covers_graph || static_cast<std::size_t>(view.radius) >= stop) {
      return static_cast<std::int64_t>(hash_ & 0x7fffffffffffffffULL);
    }
    return std::nullopt;
  }

  bool reset() noexcept override {
    hash_ = 0x9e3779b97f4a7c15ULL;
    return true;
  }

 private:
  static std::uint64_t mix(std::uint64_t h, std::uint64_t x) noexcept {
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  std::uint64_t hash_ = 0x9e3779b97f4a7c15ULL;
};

TEST(RunViewsBatched, ReplayedViewsAreBitIdenticalToGrowerViews) {
  support::Xoshiro256 rng(21);
  const auto factory = [] { return std::make_unique<ViewFingerprint>(); };
  for (const auto semantics :
       {local::ViewSemantics::kInducedBall, local::ViewSemantics::kFloodingKnowledge}) {
    const auto gnp = graph::make_gnp_connected(36, 0.15, rng);
    expect_batched_matches_per_trial(gnp, factory, semantics, 5);
  }
}

TEST(RunViewsBatched, RowGatherRegimeBoundaryIsBitExact) {
  // The engine switches between the transposed row-gather kernel and the
  // per-trial straggler gather at kRowGatherMinActive in-flight trials.
  // Batch sizes straddling (and exactly hitting) the threshold start on
  // either side of the boundary and cross it as trials finish; every one
  // of them must reproduce the per-trial engine bit for bit.
  const auto g = graph::make_cycle(21);
  for (const std::size_t trials :
       {local::kRowGatherMinActive - 1, local::kRowGatherMinActive,
        local::kRowGatherMinActive + 1, local::kRowGatherMinActive + 37}) {
    expect_batched_matches_per_trial(g, algo::make_largest_id_view(),
                                     local::ViewSemantics::kInducedBall, trials);
  }
}

TEST(RunViewsBatched, LayerJumpOnAndOffMatchPerTrialRuns) {
  // The min_radius layer-jump fuses BFS layers whose early-outs cannot
  // fire; jump on, jump off and the per-trial engine must agree exactly.
  // cv3 and mis-ring both set min_radius from an n-dependent schedule, so
  // they exercise multi-layer jumps; largest-id jumps never (min_radius 0).
  const std::size_t n = 48;
  const auto g = graph::make_cycle(n);
  const std::vector<std::pair<const char*, local::ViewAlgorithmFactory>> algos = {
      {"cv3", algo::make_cole_vishkin_view(n)},
      {"mis", algo::make_mis_ring_view(n)},
      {"largest-id", algo::make_largest_id_view()},
  };
  const auto batch = random_batch(n, 6, /*seed=*/417);
  for (const auto& [name, factory] : algos) {
    local::ViewEngineOptions jump_on;
    local::ViewEngineOptions jump_off;
    jump_off.layer_jump = false;
    const Collected with_jump = collect_batched(g, batch, factory, jump_on);
    const Collected without = collect_batched(g, batch, factory, jump_off);
    EXPECT_EQ(with_jump.outputs, without.outputs) << name;
    EXPECT_EQ(with_jump.radii, without.radii) << name;
    for (std::size_t t = 0; t < batch.size(); ++t) {
      const local::RunResult run = local::run_views(g, batch[t], factory, jump_on);
      EXPECT_EQ(run.outputs, with_jump.outputs[t]) << name << " trial " << t;
      EXPECT_EQ(run.radii, with_jump.radii[t]) << name << " trial " << t;
    }
  }
}

TEST(RunViewsBatched, PhaseStatsAccumulateOnSerialRuns) {
  // cv3 is not ids_only, so the batch is transposed and the lockstep path
  // runs: all four phase timers must have registered wall time.
  const std::size_t n = 40;
  const auto g = graph::make_cycle(n);
  const auto batch = random_batch(n, 8, /*seed=*/62);
  local::BatchPhaseStats stats;
  local::ViewEngineOptions options;
  options.phase_stats = &stats;
  collect_batched(g, batch, algo::make_cole_vishkin_view(n), options);
  EXPECT_GT(stats.transpose_sec, 0.0);
  EXPECT_GT(stats.grow_sec, 0.0);
  EXPECT_GT(stats.gather_sec, 0.0);
  EXPECT_GT(stats.eval_sec, 0.0);

  // ids_only algorithms stream assignments directly: no transpose phase.
  local::BatchPhaseStats seq_stats;
  options.phase_stats = &seq_stats;
  collect_batched(g, batch, algo::make_largest_id_view(), options);
  EXPECT_EQ(seq_stats.transpose_sec, 0.0);
  EXPECT_GT(seq_stats.grow_sec, 0.0);
  EXPECT_GT(seq_stats.eval_sec, 0.0);
}

TEST(RunViewsBatched, PooledSweepIsIdenticalToSerial) {
  const auto g = graph::make_cycle(64);
  const auto batch = random_batch(64, 5, /*seed=*/3);
  local::ViewEngineOptions serial;
  const Collected a = collect_batched(g, batch, algo::make_largest_id_view(), serial);
  support::ThreadPool pool(4);
  local::ViewEngineOptions pooled;
  pooled.pool = &pool;
  const Collected b = collect_batched(g, batch, algo::make_largest_id_view(), pooled);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.radii, b.radii);
}

/// A fixed-schedule largest-id sweep of the cycle.
core::ScenarioSpec largest_id_cycle(std::vector<std::size_t> ns, std::size_t trials,
                                    std::uint64_t seed) {
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "largest-id";
  spec.ns = std::move(ns);
  spec.seed = seed;
  spec.schedule.max_trials = trials;
  return spec;
}

std::vector<core::BatchedSweepPoint> sweep_points(const core::ScenarioSpec& spec,
                                                  const core::ScenarioExecution& execution) {
  std::vector<core::BatchedSweepPoint> points;
  for (core::ScenarioPoint& p : core::run_scenario(spec, execution).points) {
    points.push_back(std::move(p.point));
  }
  return points;
}

/// Merged shard partials finalized the way `merge` does.
std::vector<core::BatchedSweepPoint> finalized(const core::ScenarioSpec& spec,
                                               const std::vector<core::PointAccumulator>& merged) {
  std::vector<core::BatchedSweepPoint> points;
  for (core::ScenarioPoint& p : core::finalize_scenario(spec, merged).points) {
    points.push_back(std::move(p.point));
  }
  return points;
}

core::ScenarioExecution threads(std::size_t count) {
  core::ScenarioExecution execution;
  execution.threads = count;
  return execution;
}

TEST(BatchedSweep, AggregatesAreBitIdenticalToPerTrialRuns) {
  const core::ScenarioSpec spec = largest_id_cycle({16, 33}, 12, 5);
  const auto fast = sweep_points(spec, threads(1));
  ASSERT_EQ(fast.size(), spec.ns.size());

  // The oracle: one full view-engine run per trial over the sweep's own id
  // streams, folded in trial order.
  for (std::size_t i = 0; i < spec.ns.size(); ++i) {
    const std::size_t n = spec.ns[i];
    const graph::Graph g = graph::make_cycle(n);
    std::vector<graph::IdAssignment> batch;
    core::fill_sweep_batch(batch, n, support::derive_seed(spec.seed, i), 0,
                           spec.schedule.max_trials);
    support::RunningStats avg_stats;
    support::RunningStats max_stats;
    std::size_t max_worst = 0;
    for (const graph::IdAssignment& ids : batch) {
      const core::Measurement m = core::run_assignment(g, ids, algo::make_largest_id_view());
      avg_stats.add(m.avg_radius);
      max_stats.add(static_cast<double>(m.max_radius));
      max_worst = std::max(max_worst, m.max_radius);
    }
    EXPECT_EQ(fast[i].n, n);
    EXPECT_EQ(fast[i].trials, spec.schedule.max_trials);
    // Same per-trial sums, same accumulation order, same divisions: the
    // doubles must be equal to the last bit, not merely close.
    EXPECT_EQ(fast[i].avg_mean, avg_stats.mean());
    EXPECT_EQ(fast[i].avg_sd, avg_stats.stddev());
    EXPECT_EQ(fast[i].avg_worst, avg_stats.max());
    EXPECT_EQ(fast[i].max_mean, max_stats.mean());
    EXPECT_EQ(fast[i].max_worst, max_worst);
  }
}

TEST(BatchedSweep, IndependentOfThreadsAndBatchSize) {
  core::ScenarioSpec spec = largest_id_cycle({24, 40}, 10, 9);
  spec.node_profile = true;
  const auto reference = sweep_points(spec, threads(1));

  for (const std::size_t batch_size : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    core::ScenarioExecution execution = threads(4);
    execution.batch_size = batch_size;
    EXPECT_EQ(sweep_points(spec, execution), reference) << "threads=4 batch=" << batch_size;
  }
}

TEST(BatchedSweep, DistributionAndNodeMeasuresAreConsistent) {
  core::ScenarioSpec spec = largest_id_cycle({30}, 8, 2);
  spec.node_profile = true;
  spec.quantile_probs = {0.0, 0.5, 1.0};
  const auto points = sweep_points(spec, {});
  ASSERT_EQ(points.size(), 1u);
  const auto& p = points[0];

  EXPECT_EQ(p.radius.samples, 30u * 8u);
  // The distribution mean is the node- and ID-averaged radius, which must
  // equal the mean of per-run averages when every run has n samples.
  EXPECT_NEAR(p.radius.mean, p.avg_mean, 1e-12);
  EXPECT_EQ(p.radius.max, p.max_worst);
  ASSERT_EQ(p.radius.quantiles.size(), 3u);
  EXPECT_LE(p.radius.quantiles[0], p.radius.quantiles[1]);
  EXPECT_LE(p.radius.quantiles[1], p.radius.quantiles[2]);
  EXPECT_EQ(p.radius.quantiles[2], p.radius.max);

  ASSERT_EQ(p.node_mean.size(), 30u);
  double node_avg = 0.0;
  double worst = 0.0;
  double best = p.node_mean[0];
  for (double m : p.node_mean) {
    node_avg += m;
    worst = std::max(worst, m);
    best = std::min(best, m);
  }
  node_avg /= 30.0;
  EXPECT_NEAR(node_avg, p.avg_mean, 1e-12);
  EXPECT_EQ(worst, p.node_mean_max);
  EXPECT_EQ(best, p.node_mean_min);
  // The closure radius 15 is paid by the *leader*, which is a different
  // vertex in each run - that is the ordinary-node / worst-id distinction
  // these measures exist for. No fixed vertex leads every run here, so the
  // worst node mean sits strictly between the sweep average and the
  // worst-case radius.
  EXPECT_GT(p.node_mean_max, p.avg_mean);
  EXPECT_LT(p.node_mean_max, 15.0);
}

TEST(ShardPlan, PartitionsTrialsAcrossShards) {
  const auto plan = core::plan_shards(3, 10, 4);
  ASSERT_EQ(plan.size(), 4u);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].point_begin, 0u);
    EXPECT_EQ(plan[i].point_end, 3u);
    EXPECT_EQ(plan[i].trial_begin, covered);
    covered = plan[i].trial_end;
  }
  EXPECT_EQ(covered, 10u);

  // More shards than trials: empty shards are dropped, one trial each.
  const auto tiny = core::plan_shards(1, 3, 8);
  ASSERT_EQ(tiny.size(), 3u);
  for (const auto& shard : tiny) EXPECT_EQ(shard.trial_end - shard.trial_begin, 1u);
}

TEST(Shards, JsonMergeIsBitIdenticalToMonolithicSweep) {
  core::ScenarioSpec spec = largest_id_cycle({12, 26}, 9, 77);
  spec.node_profile = true;
  const auto monolithic = sweep_points(spec, threads(2));

  // A deliberately lopsided plan: one shard owns all of point 0 while
  // point 1 is split across two uneven trial ranges.
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.threads = 2;
  const core::SweepPlanMeta meta = core::scenario_plan_meta(resolved);
  const std::vector<core::SweepShard> plan = {
      {0, 1, 0, 9},  // point 0, all trials
      {1, 2, 0, 4},  // point 1, first trials
      {1, 2, 4, 9},  // point 1, rest
  };
  std::vector<std::string> artefacts;
  for (const auto& shard : plan) {
    core::ShardDocument doc;
    doc.meta = meta;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, options, shard);
    artefacts.push_back(core::shard_to_json(doc));
  }

  std::vector<core::ShardDocument> parsed;
  // Merge must not depend on artefact order; feed them scrambled.
  parsed.push_back(core::parse_shard_json(artefacts[2]));
  parsed.push_back(core::parse_shard_json(artefacts[0]));
  parsed.push_back(core::parse_shard_json(artefacts[1]));
  const auto merged = finalized(resolved.spec, core::merge_shards(std::move(parsed)));

  // Bit-identical: every integer and every double, including histograms,
  // quantiles and node profiles.
  EXPECT_EQ(merged, monolithic);
}

TEST(Shards, PlannedShardsMergeBitIdenticallyToo) {
  const core::ScenarioSpec spec = largest_id_cycle({18}, 7, 13);
  const auto monolithic = sweep_points(spec, threads(1));
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.threads = 1;
  const core::SweepPlanMeta meta = core::scenario_plan_meta(resolved);

  std::vector<core::ShardDocument> docs;
  for (const auto& shard : core::plan_shards(spec.ns.size(), options.trials, 3)) {
    core::ShardDocument doc;
    doc.meta = meta;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, options, shard);
    docs.push_back(core::parse_shard_json(core::shard_to_json(doc)));
  }
  EXPECT_EQ(finalized(resolved.spec, core::merge_shards(std::move(docs))), monolithic);
}

TEST(BatchedSweep, ProviderParameterisesAlgorithmPerPoint) {
  // cv3's schedule radius depends on n: a multi-point sweep must build the
  // factory per point, not once from the first size.
  core::ScenarioSpec spec;
  spec.family = {"cycle", {}};
  spec.algorithm = "cv3";
  spec.ns = {32, 128};
  spec.seed = 3;
  spec.schedule.max_trials = 5;
  const auto points = sweep_points(spec, threads(1));
  ASSERT_EQ(points.size(), 2u);

  // Each point must equal a sweep of just that size with a factory fixed
  // at that n and the same global point index (hence the same trial seeds).
  const core::BatchedSweepOptions options = core::resolve_scenario(spec).sweep_options();
  for (std::size_t point = 0; point < 2; ++point) {
    const std::size_t n = spec.ns[point];
    const graph::Graph g = graph::make_cycle(n);
    const core::ViewBackend backend(
        [n](std::size_t) { return algo::make_cole_vishkin_view(n); });
    const core::SweepDriver driver(backend, options);
    core::SweepDriver::Point prepared = driver.prepare(g, point);
    const core::PointAccumulator acc = driver.run_trials(prepared, 0, options.trials);
    EXPECT_EQ(points[point], core::finalize_point(acc, options)) << "n=" << n;
  }
}

TEST(Shards, MergeRejectsMismatchedWorkloadLabels) {
  const core::ResolvedScenario resolved = core::resolve_scenario(largest_id_cycle({14}, 4, 1));
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.threads = 1;

  const auto make_doc = [&](const std::string& algorithm, const core::SweepShard& shard) {
    core::ShardDocument doc;
    doc.meta = core::SweepPlanMeta::from_options(resolved.spec.ns, options);
    doc.meta.algorithm = algorithm;
    doc.meta.graph = "cycle";
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, options, shard);
    return core::parse_shard_json(core::shard_to_json(doc));
  };

  // The numeric plans agree; only the workload labels reveal that these
  // artefacts came from different algorithms.
  std::vector<core::ShardDocument> docs = {make_doc("largest-id", {0, 1, 0, 2}),
                                           make_doc("cv3", {0, 1, 2, 4})};
  EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);

  std::vector<core::ShardDocument> ok = {make_doc("largest-id", {0, 1, 0, 2}),
                                         make_doc("largest-id", {0, 1, 2, 4})};
  const auto merged = core::merge_shards(std::move(ok));
  EXPECT_EQ(merged.size(), 1u);
}

TEST(Shards, MergeRejectsIncompleteAndMismatchedPlans) {
  const core::ResolvedScenario resolved = core::resolve_scenario(largest_id_cycle({14}, 6, 4));
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.threads = 1;
  const core::SweepPlanMeta meta = core::scenario_plan_meta(resolved);

  const auto run_shard = [&](const core::SweepShard& shard) {
    core::ShardDocument doc;
    doc.meta = meta;
    doc.shard = shard;
    doc.points = core::run_scenario_shard(resolved, options, shard);
    return doc;
  };

  // Missing trials [4, 6).
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 4})};
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Overlapping trial ranges.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 4}), run_shard({0, 1, 2, 6})};
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Plans disagree on the seed.
  {
    std::vector<core::ShardDocument> docs = {run_shard({0, 1, 0, 6}), run_shard({0, 1, 0, 6})};
    docs[1].meta.seed ^= 1;
    EXPECT_THROW(core::merge_shards(std::move(docs)), std::logic_error);
  }
  // Not a shard artefact.
  EXPECT_THROW(core::parse_shard_json("{\"bench\":\"core\"}"), std::runtime_error);
}

}  // namespace
