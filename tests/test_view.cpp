// Tests of the ball-view machinery: BallGrower under both knowledge
// semantics, the identifier-free BallGeometry core against it, ring view
// extraction, and the view engine loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "graph/family_registry.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/view.hpp"
#include "local/view_engine.hpp"
#include "support/rng.hpp"

namespace {

using namespace avglocal;
using local::BallGeometry;
using local::BallGrower;
using local::BallView;
using local::ViewSemantics;

TEST(BallGrower, RadiusZeroIsJustTheRoot) {
  const auto g = graph::make_cycle(5);
  const auto ids = graph::IdAssignment::identity(5);
  BallGrower::Scratch scratch(5);
  BallGrower grower(g, ids, 2, ViewSemantics::kInducedBall, scratch);
  const BallView& view = grower.view();
  EXPECT_EQ(view.radius, 0);
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view.root_id(), 3u);
  EXPECT_EQ(view.degree_of(0), 2u);
  EXPECT_FALSE(view.covers_graph);
}

TEST(BallGrower, InducedCoversCycleAtCeilHalf) {
  for (const std::size_t n : {3u, 4u, 5u, 6u, 7u, 8u, 9u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::identity(n);
    BallGrower::Scratch scratch(n);
    BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
    std::size_t r = 0;
    while (!grower.view().covers_graph) {
      grower.grow();
      ++r;
      ASSERT_LE(r, n);
    }
    EXPECT_EQ(r, n / 2) << "induced closure at ceil((n-1)/2), n = " << n;
    EXPECT_EQ(grower.view().size(), n);
  }
}

TEST(BallGrower, FloodingCoversCycleLater) {
  for (const std::size_t n : {4u, 5u, 6u, 7u, 9u, 12u}) {
    const auto g = graph::make_cycle(n);
    const auto ids = graph::IdAssignment::identity(n);
    BallGrower::Scratch scratch(n);
    BallGrower grower(g, ids, 1, ViewSemantics::kFloodingKnowledge, scratch);
    std::size_t r = 0;
    while (!grower.view().covers_graph) {
      grower.grow();
      ++r;
      ASSERT_LE(r, n);
    }
    EXPECT_EQ(r, (n + 1) / 2) << "flooding closure at ceil(n/2), n = " << n;
  }
}

TEST(BallGrower, LayerSizesOnCycle) {
  const std::size_t n = 11;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  for (std::size_t r = 1; r <= 5; ++r) {
    grower.grow();
    EXPECT_EQ(grower.view().size(), std::min(n, 2 * r + 1));
  }
}

TEST(BallGrower, ViewIdsAreAppendOnly) {
  const std::size_t n = 16;
  const auto g = graph::make_cycle(n);
  avglocal::support::Xoshiro256 rng(11);
  const auto ids = graph::IdAssignment::random(n, rng);
  BallGrower::Scratch scratch(n);
  BallGrower grower(g, ids, 3, ViewSemantics::kInducedBall, scratch);
  std::vector<std::uint64_t> prefix(grower.view().ids.begin(), grower.view().ids.end());
  for (int r = 1; r <= 8; ++r) {
    grower.grow();
    const auto now = grower.view().ids;
    ASSERT_GE(now.size(), prefix.size());
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(now[i], prefix[i]) << "prefix must be stable";
    }
    prefix.assign(now.begin(), now.end());
  }
}

TEST(BallGrower, ScratchIsReusableAcrossGrowers) {
  const std::size_t n = 10;
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  for (graph::Vertex v = 0; v < n; ++v) {
    BallGrower grower(g, ids, v, ViewSemantics::kInducedBall, scratch);
    grower.grow();
    EXPECT_EQ(grower.view().size(), 3u);
    EXPECT_EQ(grower.view().root_id(), v + 1);
  }
}

TEST(BallGrower, StarGeometry) {
  const auto g = graph::make_star(7);
  const auto ids = graph::IdAssignment::identity(7);
  BallGrower::Scratch scratch(7);
  {
    BallGrower centre(g, ids, 0, ViewSemantics::kInducedBall, scratch);
    centre.grow();
    EXPECT_TRUE(centre.view().covers_graph);
    EXPECT_EQ(centre.view().size(), 7u);
  }
  {
    BallGrower leaf(g, ids, 1, ViewSemantics::kInducedBall, scratch);
    leaf.grow();
    EXPECT_EQ(leaf.view().size(), 2u);
    EXPECT_FALSE(leaf.view().covers_graph);
    leaf.grow();
    EXPECT_TRUE(leaf.view().covers_graph);
    EXPECT_EQ(leaf.view().size(), 7u);
  }
}

TEST(BallView, MaxAndGreaterQueries) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::reversed(6);  // ids 6,5,4,3,2,1
  BallGrower::Scratch scratch(6);
  BallGrower grower(g, ids, 3, ViewSemantics::kInducedBall, scratch);  // own id 3
  grower.grow();
  const BallView& view = grower.view();
  EXPECT_EQ(view.max_id(), 4u);
  EXPECT_TRUE(view.contains_id_greater_than(3));
  EXPECT_FALSE(view.contains_id_greater_than(4));
}

struct RingViewCase {
  std::size_t n;
  std::size_t radius;
  local::ViewSemantics semantics;
};

class RingViewExtraction : public ::testing::TestWithParam<RingViewCase> {};

TEST_P(RingViewExtraction, WalksMatchArcOrder) {
  const auto [n, radius, semantics] = GetParam();
  const auto g = graph::make_cycle(n);
  const auto ids = graph::IdAssignment::identity(n);
  BallGrower::Scratch scratch(n);
  const graph::Vertex root = 0;
  BallGrower grower(g, ids, root, semantics, scratch);
  for (std::size_t r = 0; r < radius; ++r) grower.grow();
  local::RingScratch ring_scratch;
  const auto ring = local::try_extract_ring_view(grower.view(), ring_scratch);
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(ring->own, 1u);
  if (ring->closed) {
    EXPECT_EQ(ring->seen_count(), n);
    EXPECT_TRUE(ring->ccw.empty());
    ASSERT_EQ(ring->cw.size(), n - 1);
    for (std::size_t i = 0; i < ring->cw.size(); ++i) {
      EXPECT_EQ(ring->cw[i], 2 + i) << "clockwise walk follows ring order";
    }
  } else {
    ASSERT_EQ(ring->cw.size(), radius);
    ASSERT_EQ(ring->ccw.size(), radius);
    for (std::size_t i = 0; i < radius; ++i) {
      EXPECT_EQ(ring->cw[i], (root + i + 1) % n + 1);  // identifier = vertex index + 1
      EXPECT_EQ(ring->ccw[i], (root + n - i - 1) % n + 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingViewExtraction,
    ::testing::Values(RingViewCase{9, 2, ViewSemantics::kInducedBall},
                      RingViewCase{9, 3, ViewSemantics::kInducedBall},
                      RingViewCase{9, 4, ViewSemantics::kInducedBall},   // closed
                      RingViewCase{12, 3, ViewSemantics::kFloodingKnowledge},
                      RingViewCase{12, 6, ViewSemantics::kFloodingKnowledge},  // closed
                      RingViewCase{5, 2, ViewSemantics::kInducedBall}));      // closed

TEST(RingView, NonRingRootIsRejected) {
  const auto g = graph::make_star(5);
  const auto ids = graph::IdAssignment::identity(5);
  BallGrower::Scratch scratch(5);
  BallGrower grower(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  grower.grow();
  local::RingScratch ring_scratch;
  EXPECT_FALSE(local::try_extract_ring_view(grower.view(), ring_scratch).has_value());
}

/// Owned copy of a RingView: extraction results point into their scratch,
/// so comparing two of them across later extractions needs a copy.
struct RingCopy {
  std::uint64_t own = 0;
  std::vector<std::uint64_t> cw;
  std::vector<std::uint64_t> ccw;
  bool closed = false;

  explicit RingCopy(const local::RingView& ring)
      : own(ring.own),
        cw(ring.cw.begin(), ring.cw.end()),
        ccw(ring.ccw.begin(), ring.ccw.end()),
        closed(ring.closed) {}

  bool operator==(const RingCopy&) const = default;
};

TEST(RingView, ReusedScratchMatchesFreshScratch) {
  // One scratch across a long open walk, a shorter open walk, a closed ring
  // larger than both (the buffers grow) and a rejected star root: every
  // result must equal a fresh scratch's, with no ids left over from an
  // earlier, longer walk.
  struct Step {
    graph::Graph g;
    std::size_t radius;
    std::size_t cw_len;  // expected walk lengths when accepted
    std::size_t ccw_len;
    bool accepted;
  };
  const Step steps[] = {
      {graph::make_cycle(16), 4, 4, 4, true},
      {graph::make_cycle(16), 2, 2, 2, true},
      {graph::make_cycle(11), 5, 10, 0, true},  // closed
      {graph::make_star(5), 1, 0, 0, false},
  };
  support::Xoshiro256 rng(11);
  local::RingScratch reused;
  for (const Step& step : steps) {
    const std::size_t n = step.g.vertex_count();
    const auto ids = graph::IdAssignment::random(n, rng);
    BallGrower::Scratch scratch(n);
    BallGrower grower(step.g, ids, 0, ViewSemantics::kInducedBall, scratch);
    for (std::size_t r = 0; r < step.radius; ++r) grower.grow();

    local::RingScratch fresh;
    const auto expected = local::try_extract_ring_view(grower.view(), fresh);
    const auto got = local::try_extract_ring_view(grower.view(), reused);
    ASSERT_EQ(got.has_value(), step.accepted) << "n " << n << " radius " << step.radius;
    ASSERT_EQ(expected.has_value(), step.accepted);
    if (!step.accepted) continue;
    EXPECT_EQ(got->cw.size(), step.cw_len);
    EXPECT_EQ(got->ccw.size(), step.ccw_len);
    EXPECT_EQ(got->closed, step.ccw_len == 0);
    EXPECT_EQ(RingCopy(*got), RingCopy(*expected)) << "n " << n << " radius " << step.radius;
  }
}

// ---- view engine ----------------------------------------------------------

/// Stops at a fixed radius, outputs the ball size (for engine-loop tests).
class StopAtRadius final : public local::ViewAlgorithm {
 public:
  explicit StopAtRadius(int r) : target_(r) {}
  std::optional<std::int64_t> on_view(const BallView& view) override {
    if (view.radius < target_ && !view.covers_graph) return std::nullopt;
    return static_cast<std::int64_t>(view.size());
  }

 private:
  int target_;
};

TEST(ViewEngine, RadiiAndOutputs) {
  const auto g = graph::make_cycle(10);
  const auto ids = graph::IdAssignment::identity(10);
  const auto run = local::run_views(g, ids, [] { return std::make_unique<StopAtRadius>(2); });
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_EQ(run.radii[v], 2u);
    EXPECT_EQ(run.outputs[v], 5);
  }
  EXPECT_EQ(run.max_radius(), 2u);
  EXPECT_DOUBLE_EQ(run.average_radius(), 2.0);
  EXPECT_EQ(run.sum_radius(), 20u);
}

TEST(ViewEngine, CoverShortCircuitsLargeTargets) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::identity(6);
  const auto run =
      local::run_views(g, ids, [] { return std::make_unique<StopAtRadius>(100); });
  for (std::size_t v = 0; v < 6; ++v) EXPECT_EQ(run.radii[v], 3u);
}

/// Never stops: engine must throw at the cap.
class NeverStops final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const BallView&) override { return std::nullopt; }
};

TEST(ViewEngine, RadiusCapThrows) {
  const auto g = graph::make_cycle(6);
  const auto ids = graph::IdAssignment::identity(6);
  EXPECT_THROW(local::run_views(g, ids, [] { return std::make_unique<NeverStops>(); }),
               std::runtime_error);
}

TEST(ViewEngine, SingleVertexRunner) {
  const auto g = graph::make_cycle(9);
  const auto ids = graph::IdAssignment::identity(9);
  const auto [output, radius] =
      local::run_view_on_vertex(g, ids, 4, [] { return std::make_unique<StopAtRadius>(1); });
  EXPECT_EQ(radius, 1u);
  EXPECT_EQ(output, 3);
}

TEST(PortTable, RowsSpansAndReuse) {
  local::PortTable table;
  EXPECT_EQ(table.rows(), 0u);
  table.add_row(2);
  table.add_row(0);
  table.add_row(3);
  ASSERT_EQ(table.rows(), 3u);
  EXPECT_EQ(table.row_size(0), 2u);
  EXPECT_EQ(table.row_size(1), 0u);
  EXPECT_EQ(table[2].size(), 3u);
  for (const auto target : table[0]) EXPECT_EQ(target, local::kUnknownTarget);
  table[0][1] = 7;
  EXPECT_EQ(table[0][1], 7u);
  table.clear();
  EXPECT_EQ(table.rows(), 0u);
  table.assign_rows(4, 2);
  ASSERT_EQ(table.rows(), 4u);
  for (std::size_t row = 0; row < 4; ++row) {
    ASSERT_EQ(table.row_size(row), 2u);
    EXPECT_EQ(table[row][0], local::kUnknownTarget);
  }
}

TEST(BallGrower, ResetReRootsAndMatchesFreshGrower) {
  const auto g = graph::make_grid(4, 5);
  const auto ids = graph::IdAssignment::reversed(20);
  BallGrower::Scratch scratch(20);
  BallGrower reused(g, ids, 0, ViewSemantics::kInducedBall, scratch);
  for (avglocal::graph::Vertex root = 0; root < 20; ++root) {
    reused.reset(root);
    reused.grow();
    reused.grow();

    BallGrower::Scratch fresh_scratch(20);
    BallGrower fresh(g, ids, root, ViewSemantics::kInducedBall, fresh_scratch);
    fresh.grow();
    fresh.grow();

    const auto& a = reused.view();
    const auto& b = fresh.view();
    ASSERT_EQ(a.size(), b.size()) << "root " << root;
    EXPECT_TRUE(std::equal(a.ids.begin(), a.ids.end(), b.ids.begin(), b.ids.end()));
    EXPECT_EQ(a.dist, b.dist);
    EXPECT_EQ(a.covers_graph, b.covers_graph);
    for (std::size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a.degree_of(v), b.degree_of(v));
      for (std::size_t port = 0; port < a.degree_of(v); ++port) {
        EXPECT_EQ(a.ports[v][port], b.ports[v][port]) << "root " << root;
      }
    }
  }
}

/// Discovery order of a plain queue BFS from `root` following port order,
/// with each vertex's distance: the order both ball builders must produce.
std::pair<std::vector<graph::Vertex>, std::vector<std::size_t>> naive_bfs(const graph::Graph& g,
                                                                          graph::Vertex root) {
  std::vector<std::size_t> dist(g.vertex_count(), SIZE_MAX);
  std::vector<graph::Vertex> order = {root};
  dist[root] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const graph::Vertex b : g.neighbours(order[i])) {
      if (dist[b] != SIZE_MAX) continue;
      dist[b] = dist[order[i]] + 1;
      order.push_back(b);
    }
  }
  return {order, dist};
}

/// First radius at which every edge of root's component is visible: the
/// eccentricity for induced balls; under flooding one more when an edge
/// joins two vertices of the outermost layer (such an edge needs an
/// endpoint at distance <= r-1).
std::size_t naive_covering_radius(const graph::Graph& g, const std::vector<graph::Vertex>& order,
                                  const std::vector<std::size_t>& dist, ViewSemantics semantics) {
  const std::size_t ecc = dist[order.back()];
  if (semantics == ViewSemantics::kInducedBall) return ecc;
  for (const graph::Vertex a : order) {
    if (dist[a] != ecc) continue;
    for (const graph::Vertex b : g.neighbours(a)) {
      if (dist[b] == ecc) return ecc + 1;
    }
  }
  return ecc;
}

std::size_t unknown_slots(const local::PortTable& ports) {
  std::size_t unknown = 0;
  for (std::size_t row = 0; row < ports.rows(); ++row) {
    for (const local::LocalVertex target : ports[row]) unknown += target == local::kUnknownTarget;
  }
  return unknown;
}

TEST(BallGeometry, MatchesMaterialisingGrowerOnEveryFamily) {
  const auto& registry = graph::FamilyRegistry::global();
  for (const std::string& name : registry.names()) {
    for (const std::size_t requested : {7u, 20u}) {
      const graph::FamilySpec spec{name, {}};
      support::Xoshiro256 rng(requested * 31 + name.size());
      const graph::Graph g = registry.build(spec, requested, rng);
      const std::size_t n = g.vertex_count();
      const auto ids = graph::IdAssignment::random(n, rng);
      for (const ViewSemantics semantics :
           {ViewSemantics::kInducedBall, ViewSemantics::kFloodingKnowledge}) {
        BallGeometry::Scratch geometry_scratch(n);
        BallGeometry geometry(g, 0, semantics, geometry_scratch);
        BallGrower::Scratch grower_scratch(n);
        BallGrower grower(g, ids, 0, semantics, grower_scratch);
        for (const graph::Vertex root :
             {graph::Vertex{0}, static_cast<graph::Vertex>(n / 2),
              static_cast<graph::Vertex>(n - 1), static_cast<graph::Vertex>(rng.below(n))}) {
          const std::string where = name + " n=" + std::to_string(n) + " " +
                                    local::to_string(semantics) +
                                    " root=" + std::to_string(root);
          geometry.reset(root);
          grower.reset(root);
          const auto [order, dist] = naive_bfs(g, root);
          const std::size_t cover = naive_covering_radius(g, order, dist, semantics);
          for (std::size_t r = 0; r <= cover + 1; ++r) {
            const BallView& view = grower.view();
            ASSERT_EQ(geometry.radius(), r) << where;
            ASSERT_EQ(static_cast<std::size_t>(view.radius), r) << where;
            // Same discovery order as the grower and as a plain BFS.
            const auto expected_size = static_cast<std::size_t>(
                std::count_if(dist.begin(), dist.end(), [r](std::size_t d) { return d <= r; }));
            ASSERT_EQ(geometry.size_at(r), expected_size) << where << " r=" << r;
            ASSERT_EQ(view.size(), expected_size) << where << " r=" << r;
            const auto vertices = geometry.vertices();
            ASSERT_TRUE(std::equal(vertices.begin(), vertices.end(), order.begin(),
                                   order.begin() + static_cast<std::ptrdiff_t>(expected_size)))
                << where << " r=" << r;
            const auto globals = grower.global_vertices();
            ASSERT_TRUE(std::equal(vertices.begin(), vertices.end(), globals.begin(),
                                   globals.end()))
                << where << " r=" << r;
            // The geometry's count is exactly the materialised view's
            // unknown port slots, and coverage follows from it.
            EXPECT_EQ(geometry.unresolved_ports(), unknown_slots(view.ports))
                << where << " r=" << r;
            EXPECT_EQ(geometry.covers_graph(), r >= cover) << where << " r=" << r;
            EXPECT_EQ(view.covers_graph, r >= cover) << where << " r=" << r;
            geometry.grow();
            grower.grow();
          }
          EXPECT_EQ(geometry.covers_radius(), cover) << where;
          // Past coverage only the radius moves.
          EXPECT_EQ(geometry.size_at(cover + 2), n) << where;
        }
      }
    }
  }
}

TEST(BallGeometry, NotCoveredUntilGrownToCoverage) {
  const auto g = graph::make_cycle(9);
  BallGeometry::Scratch scratch(9);
  BallGeometry geometry(g, 4, ViewSemantics::kInducedBall, scratch);
  EXPECT_EQ(geometry.covers_radius(), BallGeometry::kNotCovered);
  for (int step = 0; step < 3; ++step) geometry.grow();
  EXPECT_FALSE(geometry.covers_graph());
  geometry.grow();  // radius 4 = ceil((9-1)/2): the ball closes
  EXPECT_EQ(geometry.covers_radius(), 4u);
  EXPECT_EQ(geometry.layer(4), (std::pair<std::size_t, std::size_t>{7, 9}));
}

}  // namespace
