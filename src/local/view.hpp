// Ball views: what a vertex knows after looking radius r around itself.
//
// The paper's second formulation of the LOCAL model: "every node gathers all
// the information in a ball around itself and outputs a function of this
// ball". BallView is that ball, with identifiers, distances, degrees and the
// visible edges; BallGrower builds it incrementally, radius by radius, on
// top of BallGeometry - the identifier-free BFS core (discovery order, ball
// size per radius, coverage) that ids-only consumers use on its own.
//
// Two knowledge semantics are supported:
//  * kInducedBall (the paper's abstraction): at radius r a vertex sees all
//    vertices at distance <= r and *all* edges between seen vertices.
//  * kFloodingKnowledge (what r rounds of message flooding deliver): at
//    radius r an edge is visible iff one endpoint is at distance <= r-1;
//    edges between two frontier vertices are not yet known.
// They differ by at most one radius step and are cross-validated in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ids.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

/// How much of the ball's edge set is visible at radius r (see file header).
enum class ViewSemantics {
  kInducedBall,
  kFloodingKnowledge,
};

/// Canonical names ("induced" / "flooding") shared by CLI flags, scenario
/// JSON and shard artefacts - one mapping so the layers can never disagree.
const char* to_string(ViewSemantics semantics) noexcept;

/// Reverse mapping; nullopt for unknown names (each caller owns its error
/// type: artefact parsers throw runtime_error, flag parsers invalid_argument).
std::optional<ViewSemantics> view_semantics_from_name(std::string_view name) noexcept;

/// Local index of a ball vertex; 0 is always the root.
using LocalVertex = std::uint32_t;

/// Sentinel for a port whose far end is not (yet) visible.
inline constexpr LocalVertex kUnknownTarget = std::numeric_limits<LocalVertex>::max();

/// Jagged port rows stored in one flat CSR buffer: row v holds one slot per
/// incident edge of the v-th ball vertex. Rows are appended in local-vertex
/// order; clear() keeps the underlying capacity, so a table reused across
/// balls stops allocating once it has seen the largest one.
class PortTable {
 public:
  /// Number of rows (== ball vertices added so far).
  std::size_t rows() const noexcept { return offsets_.size() - 1; }

  std::size_t row_size(std::size_t row) const noexcept {
    return offsets_[row + 1] - offsets_[row];
  }

  std::span<const LocalVertex> operator[](std::size_t row) const noexcept {
    return {targets_.data() + offsets_[row], targets_.data() + offsets_[row + 1]};
  }

  std::span<LocalVertex> operator[](std::size_t row) noexcept {
    return {targets_.data() + offsets_[row], targets_.data() + offsets_[row + 1]};
  }

  /// Appends a row of `degree` slots, all kUnknownTarget.
  void add_row(std::size_t degree) {
    targets_.resize(targets_.size() + degree, kUnknownTarget);
    offsets_.push_back(support::checked_u32(targets_.size()));
  }

  /// clear() + `count` rows of `degree` slots each.
  void assign_rows(std::size_t count, std::size_t degree) {
    clear();
    offsets_.reserve(count + 1);
    targets_.assign(count * degree, kUnknownTarget);
    for (std::size_t row = 1; row <= count; ++row) {
      offsets_.push_back(support::checked_u32(row * degree));
    }
  }

  /// Removes all rows; keeps capacity.
  void clear() noexcept {
    offsets_.resize(1);
    targets_.clear();
  }

 private:
  // 32-bit row offsets: a ball has at most 2m slots and build() caps arc
  // counts at 2^32, so the narrow width always fits. Half the offset
  // footprint of the old size_t rows - PortTable is the densest per-ball
  // structure the sweeps keep resident per worker lane.
  std::vector<graph::vid32> offsets_ = {0};  // size rows+1
  std::vector<LocalVertex> targets_;         // flat row storage
};

/// The knowledge of one vertex after exploring radius `radius`.
///
/// Vertices are indexed locally in BFS discovery order (root first, then by
/// non-decreasing distance; within a layer, port order). A vertex's `ports`
/// entry has one slot per incident edge (its true degree); each slot holds
/// the local index of the neighbour on that port, or kUnknownTarget when the
/// edge is not visible at this radius. Degrees are known for every seen
/// vertex (a vertex's degree is distance-0 information in the LOCAL model).
struct BallView {
  int radius = 0;

  /// ids[local] = identifier of the local-th ball vertex; ids[0] = root's.
  /// Non-owning: the engine that materialises the view owns the storage
  /// (the grower's id store, a batched sweep's per-assignment buffer, a
  /// synthetic view's backing array) and keeps it alive across the
  /// algorithm call. This is what lets the batched engine re-point one
  /// shared view at hundreds of assignment buffers without copying or
  /// swapping vectors.
  std::span<const std::uint64_t> ids;

  /// dist[local] = distance from the root.
  std::vector<int> dist;

  /// ports[local][p] = local index behind port p, or kUnknownTarget.
  PortTable ports;

  /// True when the view provably covers the whole graph: every seen vertex
  /// has all of its edges visible (so no vertex or edge can be missing).
  /// This is how the maximum-ID vertex of a cycle knows it may stop.
  bool covers_graph = false;

  std::size_t size() const noexcept { return ids.size(); }
  bool empty() const noexcept { return ids.empty(); }
  std::uint64_t root_id() const noexcept { return ids[0]; }
  std::size_t degree_of(LocalVertex v) const noexcept { return ports[v].size(); }

  /// True when some visible identifier is strictly greater than `x`.
  bool contains_id_greater_than(std::uint64_t x) const noexcept;

  /// Largest visible identifier.
  std::uint64_t max_id() const noexcept;
};

/// A ball view specialised to (a segment of) an oriented cycle, extracted
/// from a BallView whose underlying graph uses the make_cycle port
/// convention (port 0 = clockwise successor, port 1 = predecessor).
///
/// cw[k] is the identifier k+1 steps clockwise from the root, ccw[k] the
/// identifier k+1 steps counter-clockwise. When the ball closes (covers the
/// cycle), the walks are truncated so each vertex appears exactly once:
/// cw covers the whole remaining cycle and ccw is empty.
///
/// Non-owning: cw and ccw point into the RingScratch the view was extracted
/// into and stay valid until the next extraction into that scratch.
struct RingView {
  std::uint64_t own = 0;
  std::span<const std::uint64_t> cw;
  std::span<const std::uint64_t> ccw;
  bool closed = false;

  /// Number of distinct vertices visible (including the root).
  std::size_t seen_count() const noexcept { return 1 + cw.size() + ccw.size(); }
};

/// Caller-owned walk buffers for try_extract_ring_view. They only grow, so
/// one scratch reused across views stops allocating once it has seen the
/// largest ball - the per-(vertex, trial) evaluation of ring algorithms
/// keeps one as a member and extracts into it on every call.
class RingScratch {
 private:
  friend std::optional<RingView> try_extract_ring_view(const BallView& view,
                                                       RingScratch& scratch);
  std::vector<std::uint64_t> cw_;
  std::vector<std::uint64_t> ccw_;
};

/// Extracts a RingView from a ball over a cycle-with-oriented-ports graph,
/// walking into `scratch` (see RingView for the lifetime of the result).
/// Returns nullopt if the root does not look like a ring vertex (degree 2
/// with the expected port structure) or the walk meets a vertex of another
/// degree.
std::optional<RingView> try_extract_ring_view(const BallView& view, RingScratch& scratch);

/// The identifier-free part of a growing ball: which vertices it holds, in
/// which order, how many at each radius, and from which radius on it covers
/// the graph. Everything here depends on the graph alone - the BFS follows
/// port order and never consults an identifier - so one geometry serves
/// every identifier assignment of a batch.
///
/// Vertices are numbered in BFS discovery order (root first, then by
/// non-decreasing distance; within a layer, port order of the layer before),
/// exactly the local indices of BallView. Coverage is decided without a
/// port table: the geometry counts the port slots a materialised view would
/// still hold as kUnknownTarget, and the ball covers the graph once that
/// count reaches zero.
///
/// Like BallGrower, it needs O(ball) memory per instance plus a borrowed
/// scratch array of size n, and reset() reuses every buffer, so running
/// one geometry over many roots is allocation-free once the buffers have
/// grown to the largest ball seen.
class BallGeometry {
 public:
  /// Scratch state shared by consecutive geometries over the same graph.
  ///
  /// Epoch-stamped: local_of_[v] is meaningful only when stamp_[v] equals
  /// the current epoch, so retiring a whole ball is one counter bump
  /// instead of an O(ball) (originally O(n)) clear loop. Per-trial reset
  /// cost therefore tracks the ball actually grown, not the graph - the
  /// change that makes n=10^6 sweeps with small balls cheap.
  class Scratch {
   public:
    explicit Scratch(std::size_t n) : local_of_(n, 0), stamp_(n, 0) {}

   private:
    friend class BallGeometry;

    /// Starts a fresh epoch, invalidating every entry in O(1). On the
    /// u32 wrap (once per 2^32 resets) the stamps are refilled so a
    /// stale stamp from 2^32 epochs ago cannot alias the new one.
    void bump() noexcept {
      if (++epoch_ == 0) {
        std::fill(stamp_.begin(), stamp_.end(), 0);
        epoch_ = 1;
      }
    }

    std::vector<LocalVertex> local_of_;  // valid iff stamp_[v] == epoch_
    std::vector<std::uint32_t> stamp_;
    std::uint32_t epoch_ = 0;  // first bump() makes it 1 > all stamps
  };

  /// Sentinel of covers_radius() while the ball does not cover the graph.
  static constexpr std::size_t kNotCovered = std::numeric_limits<std::size_t>::max();

  /// Starts a radius-0 ball at `root`. The scratch must not be shared by
  /// two live geometries.
  BallGeometry(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
               Scratch& scratch);

  BallGeometry(const BallGeometry&) = delete;
  BallGeometry& operator=(const BallGeometry&) = delete;

  /// Re-roots at `root`, back at radius 0, reusing every buffer.
  void reset(graph::Vertex root);

  /// Grows the ball by one radius step. Once the ball covers the graph only
  /// the radius advances (the ball size is recorded again).
  void grow();

  std::size_t radius() const noexcept { return size_at_.size() - 1; }

  /// Ball vertices in discovery order (local index -> global vertex).
  std::span<const graph::Vertex> vertices() const noexcept { return global_of_; }

  /// |ball| at radius r <= radius(): the discovery-order prefix a view of
  /// radius r holds.
  std::size_t size_at(std::size_t r) const noexcept { return size_at_[r]; }

  /// Local indices [begin, end) of the vertices at distance exactly r.
  std::pair<std::size_t, std::size_t> layer(std::size_t r) const noexcept {
    return {r == 0 ? 0 : size_at_[r - 1], size_at_[r]};
  }

  /// Port slots whose far end a materialised view of this radius would not
  /// yet know (kUnknownTarget in BallView::ports). Zero iff covers_graph().
  std::size_t unresolved_ports() const noexcept { return unresolved_ports_; }

  bool covers_graph() const noexcept { return covers_radius_ != kNotCovered; }

  /// First radius at which the ball covers the graph; kNotCovered until it
  /// does.
  std::size_t covers_radius() const noexcept { return covers_radius_; }

 private:
  friend class BallGrower;

  /// Local index of v in the current ball, or kUnknownTarget when v has
  /// not been added since the last reset (epoch check, no clears).
  LocalVertex local_of(graph::Vertex v) const noexcept {
    return scratch_->stamp_[v] == scratch_->epoch_ ? scratch_->local_of_[v] : kUnknownTarget;
  }

  /// One radius step, reporting what it discovers: on_add(v) after vertex v
  /// joins the ball (its local index is the previous size), and
  /// on_resolve(la, a, pa, lb) for every arc (a, pa) the step scans that is
  /// visible once it is done (la = local index of a, lb of its far end;
  /// under flooding this re-reports arcs back into the layer before, whose
  /// slots already hold the same values). grow() passes no-ops; BallGrower
  /// fills its view from them in the same pass.
  template <typename OnAdd, typename OnResolve>
  void step(OnAdd&& on_add, OnResolve&& on_resolve);

  LocalVertex add_vertex(graph::Vertex v);

  const graph::Graph* g_;
  ViewSemantics semantics_;
  Scratch* scratch_;
  std::vector<graph::Vertex> global_of_;  // local -> global vertex
  std::vector<graph::vid32> size_at_;     // size_at_[r] = |ball| at radius r
  std::size_t unresolved_ports_ = 0;
  std::size_t covers_radius_ = kNotCovered;
};

/// Incrementally grows the ball view of `root` one radius step at a time:
/// a BallGeometry plus what a full view adds on top of it - identifiers,
/// distances and the port table, filled in from each geometry step as it
/// discovers vertices and arcs.
///
/// The grower needs O(ball) memory per instance plus a caller-provided
/// scratch array of size n that it borrows while alive; this keeps running
/// one grower per vertex over a large graph allocation-free.
class BallGrower {
 public:
  /// Scratch state shared by consecutive growers over the same graph.
  using Scratch = BallGeometry::Scratch;

  /// Ball vertices in discovery order (local index -> global vertex).
  /// Everything about this order - and about dist, ports and coverage - is
  /// identifier-independent (see BallGeometry). The batched view engine
  /// exploits this to share one grower's geometry across every identifier
  /// assignment of a batch.
  std::span<const graph::Vertex> global_vertices() const noexcept { return geometry_.vertices(); }

  /// Points the view's identifier span at an external array (the batched
  /// engine binds a per-assignment buffer, gathered over global_vertices()
  /// in the same discovery order and as long as the current ball, around
  /// each algorithm call). The binding is transient: reset() and grow()
  /// re-point the span at the grower's own identifiers.
  void bind_ids(std::span<const std::uint64_t> ids) noexcept { view_.ids = ids; }

  /// Starts a radius-0 view rooted at `root`. `ids` must match `g`.
  /// The scratch must not be shared by two live growers.
  BallGrower(const graph::Graph& g, const graph::IdAssignment& ids, graph::Vertex root,
             ViewSemantics semantics, Scratch& scratch);

  BallGrower(const BallGrower&) = delete;
  BallGrower& operator=(const BallGrower&) = delete;

  /// Re-roots the grower at `root`, back at radius 0, reusing every buffer
  /// (view arrays, geometry, scratch). Running one grower over many roots
  /// through reset() is allocation-free once the buffers have grown to the
  /// largest ball seen - the hot path of sweep measurements.
  void reset(graph::Vertex root);

  const BallView& view() const noexcept { return view_; }

  /// Grows the ball by one radius step. No-op (except the radius counter)
  /// once the view covers the graph.
  void grow();

 private:
  /// Appends identifier, distance and an all-unknown port row for v.
  void add_row(graph::Vertex v, int dist);

  /// Clears the view down to the geometry's radius-0 ball.
  void start_view();

  const graph::Graph* g_;
  const graph::IdAssignment* ids_;
  BallGeometry geometry_;
  BallView view_;
  std::vector<std::uint64_t> ids_store_;  // backs view_.ids when not bound
};


}  // namespace avglocal::local
