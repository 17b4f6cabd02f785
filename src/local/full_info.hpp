// Full-information adapter: runs a ViewAlgorithm through the message engine.
//
// This is the constructive proof (at code level) that the paper's two
// formulations of the LOCAL model agree: a gossip protocol floods identifier
// and adjacency facts, each node reconstructs its radius-k view after k
// rounds, and feeds it to the same ViewAlgorithm the ball engine runs.
// Radii and outputs then match run_views(..., kFloodingKnowledge) exactly.
//
// One known, harmless divergence: for a *frontier* vertex (distance exactly
// k), the adapter may know an incident edge without knowing which of the
// frontier vertex's ports carries it (that fact is still one hop away). Such
// edges are placed into free port slots; algorithms that only use frontier
// adjacency as a set - all algorithms in this library - are unaffected.
#pragma once

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/metrics.hpp"
#include "local/view_engine.hpp"

namespace avglocal::local {

/// Wraps a view algorithm as a message algorithm: each node gossips
/// identifier/adjacency facts, reconstructs its radius-k view after k
/// rounds and feeds it to `factory`'s algorithm. This is the message
/// formulation of *any* view algorithm - a core::MessageBackend accepts it
/// directly, which is what lets the cross-engine oracle suite compare the
/// two engines on arbitrary topologies. Supports Algorithm::reset whenever
/// the inner view algorithm does.
AlgorithmFactory make_full_info_factory(ViewAlgorithmFactory factory);

/// Runs `factory`'s view algorithm on every vertex via message flooding.
/// The result's radii equal the rounds after which each node output.
RunResult run_views_by_messages(const graph::Graph& g, const graph::IdAssignment& ids,
                                const ViewAlgorithmFactory& factory,
                                const EngineOptions& options = {});

}  // namespace avglocal::local
