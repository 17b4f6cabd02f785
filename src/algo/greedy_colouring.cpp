#include "algo/greedy_colouring.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "local/wire.hpp"
#include "support/annotations.hpp"
#include "support/assert.hpp"

namespace avglocal::algo {

namespace {

/// Smallest colour not used by the given neighbour colours (sorts `used`).
std::int64_t smallest_free(std::span<std::int64_t> used) {
  std::sort(used.begin(), used.end());
  std::int64_t colour = 0;
  for (const std::int64_t c : used) {
    if (c == colour) ++colour;
    if (c > colour) break;
  }
  return colour;
}

class GreedyColouringMessages final : public local::Algorithm {
 public:
  /// Sizes the per-port arrays to the degree; an instance serves one node,
  /// so after the first trial the assigns reuse their capacity.
  AVGLOCAL_HOT void on_start(local::NodeContext& ctx) override {
    nbr_id_.assign(ctx.degree(), 0);
    nbr_colour_.assign(ctx.degree(), std::nullopt);
    higher_colours_.assign(ctx.degree(), 0);
    broadcast_state(ctx);
  }

  AVGLOCAL_HOT void on_round(local::NodeContext& ctx,
                             std::span<const local::Message> inbox) override {
    for (const local::Message& msg : inbox) {
      local::Decoder d(msg.payload);
      nbr_id_[msg.from_port] = d.u64();
      if (d.flag()) nbr_colour_[msg.from_port] = d.i64();
      ids_known_ = true;
    }
    if (!ctx.has_output() && ids_known_) {
      std::size_t higher = 0;
      bool ready = true;
      for (std::size_t port = 0; port < ctx.degree(); ++port) {
        if (nbr_id_[port] <= ctx.id()) continue;
        if (!nbr_colour_[port]) {
          ready = false;
          break;
        }
        higher_colours_[higher++] = *nbr_colour_[port];
      }
      if (ready) {
        colour_ = smallest_free({higher_colours_.data(), higher});
        ctx.output(*colour_);
      }
    }
    broadcast_state(ctx);
  }

  /// on_start re-assigns the per-port arrays; only the scalars persist.
  bool reset() noexcept override {
    colour_.reset();
    ids_known_ = false;
    return true;
  }

 private:
  /// Wire words: id, has-colour flag, colour (0 while uncoloured).
  void broadcast_state(local::NodeContext& ctx) {
    const std::array<std::uint64_t, 3> words{ctx.id(), colour_.has_value() ? 1u : 0u,
                                             static_cast<std::uint64_t>(colour_.value_or(0))};
    ctx.broadcast(words);
  }

  std::vector<std::uint64_t> nbr_id_;
  std::vector<std::optional<std::int64_t>> nbr_colour_;
  std::vector<std::int64_t> higher_colours_;  // one round's exclusions, degree slots
  std::optional<std::int64_t> colour_;
  bool ids_known_ = false;
};

class GreedyColouringView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    // Replay the greedy order inside the ball: a vertex is *determined* when
    // all its ports are resolved and every higher-identifier neighbour is
    // determined. Processing in decreasing identifier order needs one pass.
    // The buffers are members: they grow to the largest ball and stay.
    const std::size_t size = view.size();
    order_.resize(size);
    std::iota(order_.begin(), order_.end(), local::LocalVertex{0});
    std::sort(order_.begin(), order_.end(), [&view](local::LocalVertex a, local::LocalVertex b) {
      return view.ids[a] > view.ids[b];
    });
    colour_.assign(size, std::nullopt);
    for (const local::LocalVertex u : order_) {
      bool resolved = true;
      higher_colours_.clear();
      for (const auto target : view.ports[u]) {
        if (target == local::kUnknownTarget) {
          resolved = false;
          break;
        }
        if (view.ids[target] > view.ids[u]) {
          if (!colour_[target]) {
            resolved = false;
            break;
          }
          higher_colours_.push_back(*colour_[target]);
        }
      }
      if (resolved) colour_[u] = smallest_free(higher_colours_);
    }
    return colour_[0];  // the root's colour, if determined
  }

  /// No per-vertex state; the replay buffers keep their capacity.
  bool reset() noexcept override { return true; }

  /// At radius 0 a non-covering root has unresolved ports, so its greedy
  /// colour cannot be determined yet.
  std::size_t min_radius() const noexcept override { return 1; }

 private:
  std::vector<local::LocalVertex> order_;          // ball vertices, decreasing id
  std::vector<std::optional<std::int64_t>> colour_;  // determined colours
  std::vector<std::int64_t> higher_colours_;       // one vertex's exclusions
};

}  // namespace

local::AlgorithmFactory make_greedy_colouring_messages() {
  return [] { return std::make_unique<GreedyColouringMessages>(); };
}

local::ViewAlgorithmFactory make_greedy_colouring_view() {
  return [] { return std::make_unique<GreedyColouringView>(); };
}

std::vector<std::size_t> greedy_colouring_radii(const graph::Graph& g,
                                                const graph::IdAssignment& ids) {
  AVGLOCAL_EXPECTS(ids.size() == g.vertex_count());
  const std::size_t n = g.vertex_count();
  // L(v) = longest strictly-increasing identifier path from v, by dynamic
  // programming over vertices in decreasing identifier order.
  std::vector<graph::Vertex> order(n);
  std::iota(order.begin(), order.end(), graph::Vertex{0});
  std::sort(order.begin(), order.end(), [&ids](graph::Vertex a, graph::Vertex b) {
    return ids.id_of(a) > ids.id_of(b);
  });
  std::vector<std::size_t> longest(n, 0);
  for (const graph::Vertex v : order) {
    for (const graph::Vertex u : g.neighbours(v)) {
      if (ids.id_of(u) > ids.id_of(v)) {
        longest[v] = std::max(longest[v], longest[u] + 1);
      }
    }
  }
  // A vertex must at least learn its neighbours' identifiers: one round.
  std::vector<std::size_t> radii(n);
  for (graph::Vertex v = 0; v < n; ++v) radii[v] = longest[v] + 1;
  return radii;
}

}  // namespace avglocal::algo
