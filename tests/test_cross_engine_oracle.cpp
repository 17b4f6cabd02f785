// Cross-engine oracle suite: algorithms with both a view and a message
// formulation must produce identical per-node output rounds through every
// execution path - a SweepDriver over a MessageBackend (one reused engine)
// and over a ViewBackend (geometry replay), and the full-information gossip
// adapter - on rings, tori, gnp graphs and random trees under shared sweep
// seeds.
//
// This is the strongest claim the simulator makes (the paper's two
// formulations of the LOCAL model agree, at code level), and it pins the
// new message-sweep path to the measurement ground truth sample by sample,
// not just in aggregate.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algo/cole_vishkin.hpp"
#include "algo/largest_id.hpp"
#include "algo/mis_ring.hpp"
#include "core/batched_sweep.hpp"
#include "core/shard.hpp"
#include "core/sweep_driver.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/full_info.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;

struct NamedGraph {
  std::string name;
  graph::Graph g;
};

std::vector<NamedGraph> oracle_topologies() {
  support::Xoshiro256 rng(4242);
  std::vector<NamedGraph> out;
  out.push_back({"ring", graph::make_cycle(20)});
  out.push_back({"torus", graph::make_torus(4, 5)});
  out.push_back({"gnp", graph::make_gnp_connected(18, 0.18, rng)});
  out.push_back({"random_tree", graph::make_random_tree(19, rng)});
  return out;
}

/// The sweep's id assignment for (seed, point, trial) - the single seed
/// derivation every engine path shares.
graph::IdAssignment sweep_ids(std::uint64_t seed, std::size_t point, std::size_t trial,
                              std::size_t n) {
  support::Xoshiro256 rng(support::derive_seed(support::derive_seed(seed, point), trial));
  return graph::IdAssignment::random(n, rng);
}

// The message formulation of largest-id is the full-information adapter on
// general graphs (the hand-rolled token flooding below is ring-only); its
// rounds equal the flooding-knowledge view radii.
TEST(CrossEngineOracle, MessageSweepEqualsBatchedViewsAndAdapterEverywhere) {
  constexpr std::uint64_t kSeed = 606;
  constexpr std::size_t kTrials = 4;

  for (const auto& [name, g] : oracle_topologies()) {
    const std::size_t n = g.vertex_count();

    core::BatchedSweepOptions options;
    options.trials = kTrials;
    options.seed = kSeed;
    options.semantics = local::ViewSemantics::kFloodingKnowledge;

    // Path 1: the message sweep over the gossip adapter (one reused
    // engine for all trials).
    const core::MessageBackend adapter(
        [](std::size_t) { return local::make_full_info_factory(algo::make_largest_id_view()); });
    const core::SweepDriver message_driver(adapter, options);
    core::SweepDriver::Point message_point = message_driver.prepare(g, /*point_index=*/0);
    const core::PointAccumulator message_acc =
        message_driver.run_trials(message_point, 0, kTrials);

    // Path 2: the batched view engine under the same seeds and semantics.
    const core::ViewBackend views([](std::size_t) { return algo::make_largest_id_view(); },
                                  local::ViewSemantics::kFloodingKnowledge);
    const core::SweepDriver view_driver(views, options);
    core::SweepDriver::Point view_point = view_driver.prepare(g, /*point_index=*/0);
    const core::PointAccumulator view_acc = view_driver.run_trials(view_point, 0, kTrials);

    // Identical per-node output rounds make the entire exact-integer
    // accumulators equal - per-trial sums and maxima, per-node sums, node
    // and edge histograms, edge times.
    EXPECT_EQ(message_acc, view_acc) << name;

    // Path 3: the adapter run one trial at a time through run_messages
    // (fresh engine per trial), against per-vertex view-engine runs.
    for (std::size_t t = 0; t < kTrials; ++t) {
      const graph::IdAssignment ids = sweep_ids(kSeed, 0, t, n);
      const auto adapter =
          local::run_views_by_messages(g, ids, algo::make_largest_id_view());
      local::ViewEngineOptions flooding;
      flooding.semantics = local::ViewSemantics::kFloodingKnowledge;
      const auto views = local::run_views(g, ids, algo::make_largest_id_view(), flooding);
      EXPECT_EQ(adapter.outputs, views.outputs) << name << " trial " << t;
      EXPECT_EQ(adapter.radii, views.radii) << name << " trial " << t;
    }
  }
}

// On rings the hand-rolled token-flooding formulation (largest-id-msg) is
// also available; its output rounds must match the flooding-knowledge view
// radii, closing the triangle message-algorithm = adapter = view engine.
TEST(CrossEngineOracle, RingTokenFloodingMatchesViewRadii) {
  constexpr std::uint64_t kSeed = 707;
  constexpr std::size_t kTrials = 5;
  const auto g = graph::make_cycle(23);

  core::BatchedSweepOptions options;
  options.trials = kTrials;
  options.seed = kSeed;
  options.semantics = local::ViewSemantics::kFloodingKnowledge;

  const core::MessageBackend tokens([](std::size_t) { return algo::make_largest_id_messages(); });
  const core::ViewBackend views([](std::size_t) { return algo::make_largest_id_view(); },
                                local::ViewSemantics::kFloodingKnowledge);
  const core::MessageBackend adapter(
      [](std::size_t) { return local::make_full_info_factory(algo::make_largest_id_view()); });
  const std::array<const core::SweepBackend*, 3> backends = {&tokens, &views, &adapter};
  std::vector<core::PointAccumulator> accs;
  for (const core::SweepBackend* backend : backends) {
    const core::SweepDriver driver(*backend, options);
    core::SweepDriver::Point point = driver.prepare(g, 0);
    accs.push_back(driver.run_trials(point, 0, kTrials));
  }
  EXPECT_EQ(accs[0], accs[1]) << "token flooding vs view engine";
  EXPECT_EQ(accs[0], accs[2]) << "token flooding vs full-information adapter";
}

/// Renders one shard artefact through a directly-constructed ViewBackend,
/// so the layer_jump toggle (not exposed through scenario specs - it is an
/// execution knob, not a workload parameter) can be pinned at the artefact
/// byte level.
std::string render_view_artefact(const graph::Graph& g, const std::string& algorithm,
                                 const core::AlgorithmProvider& provider, bool layer_jump) {
  const std::vector<std::size_t> ns = {g.vertex_count()};
  core::BatchedSweepOptions options;
  options.trials = 5;
  options.seed = 2026;
  options.node_profile = true;

  const core::ViewBackend backend(provider, local::ViewSemantics::kInducedBall, layer_jump);
  const core::SweepDriver driver(backend, options, /*pool=*/nullptr);

  core::ShardDocument doc;
  doc.meta = core::SweepPlanMeta::from_options(ns, options);
  doc.meta.algorithm = algorithm;
  doc.meta.graph = "cycle";
  doc.meta.engine = "view";
  doc.shard = {0, 1, 0, options.trials};
  core::SweepDriver::Point prepared = driver.prepare(g, 0);
  doc.points.push_back(driver.run_trials(prepared, 0, options.trials));
  return core::shard_to_json(doc);
}

// The layer-jump is a pure execution optimisation: the whole serialised
// shard artefact - every radius histogram bucket, edge time and node
// profile double - must be byte-identical with the jump on and off, for
// algorithms whose min_radius schedules actually trigger multi-layer
// jumps (cv3, mis-ring) and one that never jumps (largest-id).
TEST(CrossEngineOracle, LayerJumpLeavesShardArtefactsByteIdentical) {
  const std::size_t n = 30;
  const auto g = graph::make_cycle(n);
  const std::vector<std::pair<std::string, core::AlgorithmProvider>> cases = {
      {"cv3", [](std::size_t size) { return algo::make_cole_vishkin_view(size); }},
      {"mis", [](std::size_t size) { return algo::make_mis_ring_view(size); }},
      {"largest-id", [](std::size_t) { return algo::make_largest_id_view(); }},
  };
  for (const auto& [name, provider] : cases) {
    const std::string with_jump = render_view_artefact(g, name, provider, /*layer_jump=*/true);
    const std::string without = render_view_artefact(g, name, provider, /*layer_jump=*/false);
    EXPECT_FALSE(with_jump.empty()) << name;
    EXPECT_EQ(with_jump, without) << name;
  }
}

// The parity must hold for every pool size of the view engine: the message
// sweep is serial by construction, so this pins "thread schedule never
// changes results" across engines, not just within one.
TEST(CrossEngineOracle, ParityIsThreadScheduleIndependent) {
  support::Xoshiro256 rng(99);
  const auto g = graph::make_gnp_connected(16, 0.2, rng);
  core::BatchedSweepOptions options;
  options.trials = 3;
  options.seed = 5;
  options.semantics = local::ViewSemantics::kFloodingKnowledge;

  const core::MessageBackend adapter(
      [](std::size_t) { return local::make_full_info_factory(algo::make_largest_id_view()); });
  const core::SweepDriver message_driver(adapter, options);
  core::SweepDriver::Point message_point = message_driver.prepare(g, 0);
  const core::PointAccumulator message_acc = message_driver.run_trials(message_point, 0, 3);

  const core::ViewBackend views([](std::size_t) { return algo::make_largest_id_view(); },
                                local::ViewSemantics::kFloodingKnowledge);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    support::ThreadPool pool(threads);
    const core::SweepDriver view_driver(views, options, &pool);
    core::SweepDriver::Point view_point = view_driver.prepare(g, 0);
    EXPECT_EQ(message_acc, view_driver.run_trials(view_point, 0, 3)) << "threads=" << threads;
  }
}

}  // namespace
