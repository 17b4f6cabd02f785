// Shared instrumentation workload for the view-evaluation zero-allocation
// gate: used by tests/test_engine_alloc.cpp and bench/bench_regression.cpp
// so both measure the exact same duty cycle - the batched engine's
// reset() + on_view per (vertex, trial) on one reused instance. (Each binary
// still installs its own AVGLOCAL_DEFINE_ALLOC_HOOK; this header only
// builds the views and counts.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/alloc_hook.hpp"

namespace avglocal::local {

/// A BallView plus the identifier storage its span points into. Movable
/// (the heap buffer stays put), not copyable (a copy would alias).
struct OwnedView {
  std::vector<std::uint64_t> ids;
  BallView view;

  explicit OwnedView(const BallView& source)
      : ids(source.ids.begin(), source.ids.end()), view(source) {
    view.ids = ids;
  }
  OwnedView(OwnedView&&) noexcept = default;
  OwnedView& operator=(OwnedView&&) noexcept = default;
  OwnedView(const OwnedView&) = delete;
  OwnedView& operator=(const OwnedView&) = delete;
};

/// The induced views of the first `roots` vertices of g at every radius
/// 0..max_radius, largest first (views[0] is the root-0 view at max_radius).
inline std::vector<OwnedView> grown_views(const graph::Graph& g, const graph::IdAssignment& ids,
                                          std::size_t max_radius, std::size_t roots) {
  std::vector<OwnedView> views;
  BallGrower::Scratch scratch(g.vertex_count());
  for (graph::Vertex root = 0; root < std::min<std::size_t>(roots, g.vertex_count()); ++root) {
    BallGrower grower(g, ids, root, ViewSemantics::kInducedBall, scratch);
    std::vector<OwnedView> by_radius;
    by_radius.emplace_back(grower.view());
    for (std::size_t r = 1; r <= max_radius; ++r) {
      grower.grow();
      by_radius.emplace_back(grower.view());
    }
    std::move(by_radius.rbegin(), by_radius.rend(), std::back_inserter(views));
  }
  return views;
}

/// Heap traffic of `calls` reset() + on_view calls on one instance, cycling
/// through `views`, after a single warm-up evaluation of views[0] (the
/// largest). Every view must be no larger than views[0]; that is the
/// allocation-free contract's precondition.
inline support::AllocCounts view_eval_allocs_after_warmup(const ViewAlgorithmFactory& factory,
                                                          std::span<const OwnedView> views,
                                                          std::size_t calls) {
  const auto algorithm = factory();
  algorithm->reset();
  algorithm->on_view(views[0].view);
  // The calls go through the factory's type-erased instance, so the
  // compiler cannot drop them even though the outputs are unused.
  const support::AllocCounts before = support::alloc_counts();
  for (std::size_t i = 0; i < calls; ++i) {
    algorithm->reset();
    algorithm->on_view(views[i % views.size()].view);
  }
  const support::AllocCounts after = support::alloc_counts();
  return {after.allocations - before.allocations, after.bytes - before.bytes};
}

}  // namespace avglocal::local
