// Golden-artefact regression corpus: small canonical sweep artefacts are
// committed under tests/golden/, and this suite re-runs the exact same
// scenarios and requires the freshly serialised artefacts to be
// byte-identical to the committed files. Shard format v3 - key order,
// number formatting, scenario block, edge partials - cannot drift silently;
// any intentional format change must regenerate the corpus (set
// AVGLOCAL_REGEN_GOLDEN=1 and re-run this binary) and show up in review as
// a diff of the committed artefacts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/scenario.hpp"
#include "core/shard.hpp"

#ifndef AVGLOCAL_GOLDEN_DIR
#error "AVGLOCAL_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace avglocal;

struct GoldenCase {
  const char* file;
  const char* algorithm;
  const char* family;
  std::size_t n;
  local::ViewSemantics semantics = local::ViewSemantics::kInducedBall;
};

const GoldenCase kCases[] = {
    {"view-largest-id-cycle.json", "largest-id", "cycle", 12},
    {"view-greedy-gnp.json", "greedy", "gnp", 12},
    {"message-largest-id-cycle.json", "largest-id-msg", "cycle", 12},
    {"message-local3-cycle.json", "local3", "cycle", 12},
    {"message-cv3-msg-cycle.json", "cv3-msg", "cycle", 12},
    {"message-greedy-msg-cycle.json", "greedy-msg", "cycle", 12},
    // n=300: every node's per-origin token table fills to n-1 entries,
    // growing through several capacities within each trial.
    {"message-largest-id-cycle-300.json", "largest-id-msg", "cycle", 300},
    // Schedule-driven ring algorithms, on both sides of the closure radius:
    // cv3 at n=12 (t6=2, T=5) evaluates an open window, at n=9 the closed
    // ring; mis at n=12 (T=7) closes, at n=64 it stays open.
    {"view-cv3-cycle-open.json", "cv3", "cycle", 12},
    {"view-cv3-cycle-closed.json", "cv3", "cycle", 9},
    {"view-mis-cycle-closed.json", "mis", "cycle", 12},
    {"view-mis-cycle-open.json", "mis", "cycle", 64},
    // The ids-only sequential view path beyond the induced cycle: flooding
    // knowledge on a torus (coverage lags the induced ball by a radius)
    // and the universe-aware rule on a tree (leaves, branching layers).
    {"view-largest-id-torus-flooding.json", "largest-id", "torus", 16,
     local::ViewSemantics::kFloodingKnowledge},
    {"view-largest-id-ua-random-tree.json", "largest-id-ua", "random-tree", 16},
};

/// One deterministic full-plan shard artefact per case; every knob pinned
/// so the bytes are a pure function of the library.
std::string render_case(const GoldenCase& c) {
  core::ScenarioSpec spec;
  spec.family = graph::parse_family_spec(c.family);
  spec.algorithm = c.algorithm;
  spec.ns = {c.n};
  spec.semantics = c.semantics;
  spec.seed = 2026;
  spec.schedule.max_trials = 4;
  const core::ResolvedScenario resolved = core::resolve_scenario(spec);
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.threads = 1;

  core::ShardDocument doc;
  doc.meta = core::SweepPlanMeta::from_options(resolved.spec.ns, options);
  doc.meta.algorithm = resolved.spec.algorithm;
  doc.meta.graph = graph::family_spec_to_string(resolved.spec.family);
  doc.meta.scenario = core::scenario_to_json(resolved.spec);
  doc.meta.engine = resolved.spec.engine;
  doc.shard = {0, resolved.spec.ns.size(), 0, options.trials};
  doc.points = core::run_scenario_shard(resolved, options, doc.shard);
  return core::shard_to_json(doc);
}

std::string golden_path(const GoldenCase& c) {
  return std::string(AVGLOCAL_GOLDEN_DIR) + "/" + c.file;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return {};
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

TEST(GoldenArtefacts, CommittedArtefactsAreByteIdenticalToFreshRuns) {
  const bool regen = std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr;
  for (const GoldenCase& c : kCases) {
    const std::string fresh = render_case(c);
    const std::string path = golden_path(c);
    if (regen) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << fresh;
      continue;
    }
    const std::string committed = read_file(path);
    ASSERT_FALSE(committed.empty())
        << path << " missing; regenerate with AVGLOCAL_REGEN_GOLDEN=1";
    EXPECT_EQ(fresh, committed) << c.file
                                << ": artefact bytes drifted; if the format change is "
                                   "intentional, regenerate the corpus";
  }
}

TEST(GoldenArtefacts, CommittedArtefactsStillParseAndMerge) {
  if (std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  for (const GoldenCase& c : kCases) {
    const std::string committed = read_file(golden_path(c));
    ASSERT_FALSE(committed.empty()) << c.file;
    core::ShardDocument doc = core::parse_shard_json(committed);
    EXPECT_EQ(doc.meta.algorithm, c.algorithm) << c.file;
    // Round trip: parse + re-serialise reproduces the committed bytes.
    EXPECT_EQ(core::shard_to_json(doc), committed) << c.file;
    // A full-plan artefact merges on its own into a full-range partial.
    std::vector<core::ShardDocument> docs;
    docs.push_back(std::move(doc));
    const std::vector<core::PointAccumulator> merged = core::merge_shards(std::move(docs));
    ASSERT_EQ(merged.size(), 1u) << c.file;
    EXPECT_EQ(merged[0].trial_count(), 4u) << c.file;
    EXPECT_GT(merged[0].histogram.samples(), 0u) << c.file;
  }
}

/// A corrupt artefact must not parse, let alone merge: one extra sample in
/// either histogram, or a node sum that no longer adds up to the per-trial
/// sums, contradicts the rest of the point.
TEST(GoldenArtefacts, ArtefactsWithInconsistentTotalsAreRejected) {
  if (std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr) GTEST_SKIP();
  const core::ShardDocument golden = core::parse_shard_json(read_file(golden_path(kCases[0])));
  const auto bumped = [](std::span<const std::uint64_t> counts) {
    std::vector<std::uint64_t> copy(counts.begin(), counts.end());
    ++copy.back();
    return local::RadiusHistogram(std::move(copy));
  };
  core::ShardDocument histogram = golden;
  histogram.points[0].histogram = bumped(golden.points[0].histogram.counts());
  core::ShardDocument edge_histogram = golden;
  edge_histogram.points[0].edge_histogram = bumped(golden.points[0].edge_histogram.counts());
  core::ShardDocument node_sum = golden;
  ++node_sum.points[0].node_sum[0];
  for (const core::ShardDocument* corrupt : {&histogram, &edge_histogram, &node_sum}) {
    EXPECT_THROW((void)core::parse_shard_json(core::shard_to_json(*corrupt)),
                 std::runtime_error);
  }
}

/// The paper experiments whose random-permutation columns come from sweeps
/// (E2, E5, E6, E11), rendered at a tiny scale: their markdown is a pure
/// function of the library, so the sweep path behind them cannot change a
/// reported digit without showing up here.
TEST(GoldenArtefacts, ExperimentRendersAreByteIdentical) {
  const core::ExperimentScale scale{0.05};
  const std::string fresh = core::render(core::experiment_largest_id_gap(scale)) +
                            core::render(core::experiment_adversaries(scale)) +
                            core::render(core::experiment_exact_small_n(scale)) +
                            core::render(core::experiment_expected_complexity(scale));
  const std::string path = std::string(AVGLOCAL_GOLDEN_DIR) + "/experiments-tiny.md";
  if (std::getenv("AVGLOCAL_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << fresh;
    return;
  }
  const std::string committed = read_file(path);
  ASSERT_FALSE(committed.empty()) << path << " missing; regenerate with AVGLOCAL_REGEN_GOLDEN=1";
  EXPECT_EQ(fresh, committed) << "experiment renders drifted";
}

/// A frozen byte string of a version-2 artefact (the pre-edge-measure
/// format): the v2 reader must keep accepting it and default the new
/// fields. Frozen inline rather than generated - the library can no longer
/// write v2.
TEST(GoldenArtefacts, Version2ArtefactsStillParse) {
  const std::string v2 =
      R"({"avglocal_shard":2,"seed":9,"trials":2,"semantics":"induced","ns":[4],)"
      R"("quantile_probs":[0.5],"node_profile":false,"algorithm":"largest-id",)"
      R"("graph":"cycle","scenario":"",)"
      R"("shard":{"point_begin":0,"point_end":1,"trial_begin":0,"trial_end":2},)"
      R"("points":[{"point_index":0,"n":4,"trial_begin":0,"trial_sum":[5,6],)"
      R"("trial_max":[2,2],"histogram":[1,4,3],"node_sum":[3,2,3,3]}]})";
  const core::ShardDocument doc = core::parse_shard_json(v2);
  EXPECT_EQ(doc.meta.engine, "view");
  ASSERT_EQ(doc.points.size(), 1u);
  EXPECT_EQ(doc.points[0].edges, 0u);
  EXPECT_EQ(doc.points[0].trial_edge_sum, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_TRUE(doc.points[0].edge_histogram.empty());
  // And merges: zero edge data finalizes to all-zero edge measures.
  std::vector<core::ShardDocument> docs;
  docs.push_back(doc);
  core::ScenarioSpec spec;  // the parts of a best-effort spec finalize reads
  spec.quantile_probs = doc.meta.quantile_probs;
  const auto points = core::finalize_scenario(spec, core::merge_shards(std::move(docs))).points;
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].point.edges, 0u);
  EXPECT_EQ(points[0].point.edge_avg_mean, 0.0);
  EXPECT_EQ(points[0].point.edge_time.samples, 0u);
}

}  // namespace
