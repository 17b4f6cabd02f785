// One-shot measurement runs on an explicit identifier assignment. Random
// sweeps over many assignments go through core::SweepDriver
// (core/sweep_driver.hpp) or, declaratively, core::run_scenario
// (core/scenario.hpp).
#pragma once

#include <functional>

#include "core/measure.hpp"
#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/view_engine.hpp"

namespace avglocal::core {

/// Builds the size-n member of a graph family.
using GraphFactory = std::function<graph::Graph(std::size_t)>;

/// Runs the view algorithm once on an explicit assignment.
Measurement run_assignment(const graph::Graph& g, const graph::IdAssignment& ids,
                           const local::ViewAlgorithmFactory& algorithm,
                           local::ViewSemantics semantics = local::ViewSemantics::kInducedBall);

}  // namespace avglocal::core
