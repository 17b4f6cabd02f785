#include "local/view.hpp"

#include <algorithm>

#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::local {

const char* to_string(ViewSemantics semantics) noexcept {
  return semantics == ViewSemantics::kInducedBall ? "induced" : "flooding";
}

std::optional<ViewSemantics> view_semantics_from_name(std::string_view name) noexcept {
  if (name == "induced") return ViewSemantics::kInducedBall;
  if (name == "flooding") return ViewSemantics::kFloodingKnowledge;
  return std::nullopt;
}

bool BallView::contains_id_greater_than(std::uint64_t x) const noexcept {
  return std::any_of(ids.begin(), ids.end(), [x](std::uint64_t id) { return id > x; });
}

std::uint64_t BallView::max_id() const noexcept {
  return *std::max_element(ids.begin(), ids.end());
}

namespace {

/// Outcome of one directional ring walk.
struct RingWalk {
  std::size_t length = 0;  ///< identifiers written
  bool wrapped = false;    ///< came back round to the root
  bool malformed = false;  ///< met a vertex that is not a ring vertex
};

/// Walks along one direction starting on `first_port` of the root, writing
/// the identifiers met to `out`, until an unknown edge, a non-ring vertex,
/// or wrap-around to the root. On a cycle the walk meets each non-root ball
/// vertex at most once, so view.size() slots always suffice; running out of
/// slots means the port table is not a ring's and counts as malformed.
AVGLOCAL_HOT RingWalk walk_ring(const BallView& view, std::size_t first_port,
                                std::span<std::uint64_t> out) noexcept {
  RingWalk walk;
  LocalVertex prev = 0;
  LocalVertex cur = view.ports[0][first_port];
  while (cur != kUnknownTarget && cur != 0) {
    if (view.degree_of(cur) != 2 || walk.length == out.size()) {
      walk.malformed = true;
      return walk;
    }
    out[walk.length++] = view.ids[cur];
    const LocalVertex a = view.ports[cur][0];
    const LocalVertex b = view.ports[cur][1];
    LocalVertex next = kUnknownTarget;
    if (a == prev) {
      next = b;
    } else if (b == prev) {
      next = a;
    } else {
      // The edge back to prev is not resolved on cur's side; we cannot
      // safely pick a forward direction.
      return walk;
    }
    prev = cur;
    cur = next;
  }
  walk.wrapped = (cur == 0);
  return walk;
}

}  // namespace

std::optional<RingView> try_extract_ring_view(const BallView& view, RingScratch& scratch) {
  if (view.empty() || view.degree_of(0) != 2) return std::nullopt;
  // Warm-up only: the buffers grow to the largest ball seen and stay there.
  if (scratch.cw_.size() < view.size()) {
    scratch.cw_.resize(view.size());
    scratch.ccw_.resize(view.size());
  }

  RingView ring;
  ring.own = view.root_id();
  const RingWalk cw = walk_ring(view, 0, scratch.cw_);
  if (cw.malformed) return std::nullopt;
  ring.cw = std::span<const std::uint64_t>(scratch.cw_).first(cw.length);
  if (cw.wrapped) {
    // The ball covers the whole cycle: report everything on the clockwise
    // side so each vertex appears exactly once.
    ring.closed = true;
    return ring;
  }
  const RingWalk ccw = walk_ring(view, 1, scratch.ccw_);
  if (ccw.malformed) return std::nullopt;
  AVGLOCAL_ASSERT(!ccw.wrapped);  // would have wrapped clockwise first
  ring.ccw = std::span<const std::uint64_t>(scratch.ccw_).first(ccw.length);
  return ring;
}

BallGeometry::BallGeometry(const graph::Graph& g, graph::Vertex root, ViewSemantics semantics,
                           Scratch& scratch)
    : g_(&g), semantics_(semantics), scratch_(&scratch) {
  AVGLOCAL_EXPECTS(root < g.vertex_count());
  AVGLOCAL_EXPECTS_MSG(scratch.local_of_.size() == g.vertex_count(),
                       "scratch sized for a different graph");
  reset(root);
}

void BallGeometry::reset(graph::Vertex root) {
  AVGLOCAL_EXPECTS(root < g_->vertex_count());
  scratch_->bump();  // retires the previous ball's membership in O(1)
  global_of_.clear();
  size_at_.clear();
  unresolved_ports_ = 0;
  add_vertex(root);
  size_at_.push_back(1);
  covers_radius_ = unresolved_ports_ == 0 ? 0 : kNotCovered;
}

LocalVertex BallGeometry::add_vertex(graph::Vertex v) {
  const LocalVertex local = support::checked_u32(global_of_.size());
  scratch_->stamp_[v] = scratch_->epoch_;
  scratch_->local_of_[v] = local;
  global_of_.push_back(v);
  unresolved_ports_ += g_->degree(v);
  return local;
}

void BallGeometry::grow() {
  step([](graph::Vertex) {}, [](LocalVertex, graph::Vertex, std::size_t, LocalVertex) {});
}

template <typename OnAdd, typename OnResolve>
void BallGeometry::step(OnAdd&& on_add, OnResolve&& on_resolve) {
  if (covers_graph()) {
    size_at_.push_back(size_at_.back());
    return;
  }
  // The frontier is the previous step's layer: a slice of global_of_,
  // iterated by index because add_vertex appends behind it.
  const auto [begin, end] = layer(radius());
  // Prefetch distance along the frontier. The frontier was discovered in
  // the previous step, so its CSR rows are cold; hinting a few vertices
  // ahead overlaps the row fetch with the current vertex's scan. Hints
  // only - the traversal order and results are unchanged.
  constexpr std::size_t kAhead = 8;
  if (semantics_ == ViewSemantics::kInducedBall) {
    // Add the next layer; an edge becomes visible as soon as both endpoints
    // are in the ball, so adding b resolves both slots of every edge to an
    // in-ball neighbour c != b and the one slot of each self-loop port.
    for (std::size_t i = begin; i < end; ++i) {
      if (i + kAhead < end) g_->prefetch_offset(global_of_[i + kAhead]);
      if (i + kAhead / 2 < end) g_->prefetch_row(global_of_[i + kAhead / 2]);
      for (const graph::Vertex b : g_->neighbours(global_of_[i])) {
        if (local_of(b) != kUnknownTarget) continue;
        const LocalVertex lb = add_vertex(b);
        on_add(b);
        const auto nbrs = g_->neighbours(b);
        for (std::size_t pb = 0; pb < nbrs.size(); ++pb) {
          const LocalVertex lc = local_of(nbrs[pb]);
          if (lc == kUnknownTarget) continue;
          unresolved_ports_ -= nbrs[pb] == b ? 1 : 2;
          on_resolve(lb, b, pb, lc);
        }
      }
    }
  } else {
    // Flooding knowledge: growing to radius r+1 reveals the next vertex
    // layer plus every edge incident to the previous frontier (distance r),
    // i.e. edges with min endpoint distance <= r. An arc into the next
    // layer resolves two slots, an arc inside layer r one (its reverse arc
    // resolves the other), an arc back into layer r-1 none (resolved a
    // step earlier).
    for (std::size_t i = begin; i < end; ++i) {
      if (i + kAhead < end) g_->prefetch_offset(global_of_[i + kAhead]);
      if (i + kAhead / 2 < end) g_->prefetch_row(global_of_[i + kAhead / 2]);
      const graph::Vertex a = global_of_[i];
      const auto nbrs = g_->neighbours(a);
      for (std::size_t pa = 0; pa < nbrs.size(); ++pa) {
        LocalVertex lb = local_of(nbrs[pa]);
        if (lb == kUnknownTarget) {
          lb = add_vertex(nbrs[pa]);
          on_add(nbrs[pa]);
          unresolved_ports_ -= 2;
        } else if (lb >= end) {
          unresolved_ports_ -= 2;
        } else if (lb >= begin) {
          unresolved_ports_ -= 1;
        }
        on_resolve(support::checked_u32(i), a, pa, lb);
      }
    }
  }
  size_at_.push_back(support::checked_u32(global_of_.size()));
  if (unresolved_ports_ == 0) covers_radius_ = radius();
}

BallGrower::BallGrower(const graph::Graph& g, const graph::IdAssignment& ids, graph::Vertex root,
                       ViewSemantics semantics, Scratch& scratch)
    : g_(&g), ids_(&ids), geometry_(g, root, semantics, scratch) {
  AVGLOCAL_EXPECTS(ids.size() == g.vertex_count());
  start_view();
}

void BallGrower::reset(graph::Vertex root) {
  geometry_.reset(root);
  start_view();
}

void BallGrower::start_view() {
  view_.radius = 0;
  ids_store_.clear();
  view_.dist.clear();
  view_.ports.clear();
  add_row(geometry_.vertices()[0], 0);
  view_.ids = ids_store_;
  view_.covers_graph = geometry_.covers_graph();
}

void BallGrower::add_row(graph::Vertex v, int dist) {
  ids_store_.push_back(ids_->id_of(v));
  view_.dist.push_back(dist);
  view_.ports.add_row(g_->degree(v));
}

void BallGrower::grow() {
  ++view_.radius;
  // Rows are appended as the step discovers vertices, so a resolved arc
  // always finds both of its rows; re-setting an already visible slot
  // (an arc back into an earlier layer) writes the same value again.
  geometry_.step([this](graph::Vertex v) { add_row(v, view_.radius); },
                 [this](LocalVertex la, graph::Vertex a, std::size_t pa, LocalVertex lb) {
                   view_.ports[la][pa] = lb;
                   view_.ports[lb][g_->mirror_port(a, pa)] = la;
                 });
  view_.ids = ids_store_;  // drops any bind_ids binding; pushes may re-seat
  view_.covers_graph = geometry_.covers_graph();
}

}  // namespace avglocal::local
