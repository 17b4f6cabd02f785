#include "algo/cole_vishkin.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "algo/colour_reduction.hpp"
#include "local/view.hpp"
#include "local/wire.hpp"
#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

namespace {

class ColeVishkinMessages final : public local::Algorithm {
 public:
  AVGLOCAL_HOT void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.n().has_value(),
                         "Cole-Vishkin (known n) requires Knowledge::kKnowsN");
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "Cole-Vishkin runs on oriented cycles");
    const std::size_t n = *ctx.n();
    t6_ = cv_iterations_to_six(support::bit_width_u64(n));
    total_rounds_ = cv_schedule_rounds(n);
    colour_ = ctx.id();
    broadcast_colour(ctx);
  }

  AVGLOCAL_HOT void on_round(local::NodeContext& ctx,
                             std::span<const local::Message> inbox) override {
    std::uint64_t succ = 0, pred = 0;
    bool have_succ = false, have_pred = false;
    for (const local::Message& msg : inbox) {
      local::Decoder d(msg.payload);
      const std::uint64_t value = d.u64();
      if (msg.from_port == 0) {
        succ = value;
        have_succ = true;
      } else {
        pred = value;
        have_pred = true;
      }
    }
    AVGLOCAL_REQUIRE_MSG(have_succ && have_pred, "Cole-Vishkin expects both neighbours");
    const std::size_t k = ctx.round();
    if (k <= static_cast<std::size_t>(t6_)) {
      colour_ = cv_reduce(colour_, succ);
    } else {
      // Elimination rounds t6+1, t6+2, t6+3 clear classes 5, 4, 3.
      const std::uint64_t cls = 5 - (k - static_cast<std::size_t>(t6_) - 1);
      if (colour_ == cls) {
        for (std::uint64_t c = 0; c < 3; ++c) {
          if (c != pred && c != succ) {
            colour_ = c;
            break;
          }
        }
      }
    }
    if (k == total_rounds_) {
      ctx.output(static_cast<std::int64_t>(colour_));
    } else {
      broadcast_colour(ctx);
    }
  }

  /// on_start recomputes the schedule and colour from the context.
  bool reset() noexcept override {
    colour_ = 0;
    t6_ = 0;
    total_rounds_ = 0;
    return true;
  }

 private:
  /// The payload is the one colour word, sent straight from the member.
  void broadcast_colour(local::NodeContext& ctx) { ctx.broadcast({&colour_, 1}); }

  std::uint64_t colour_ = 0;
  int t6_ = 0;
  std::size_t total_rounds_ = 0;
};

class ColeVishkinView final : public local::ViewAlgorithm {
 public:
  explicit ColeVishkinView(std::size_t n)
      : t6_(cv_iterations_to_six(support::bit_width_u64(n))),
        target_radius_(cv_schedule_rounds(n)) {}

  AVGLOCAL_HOT std::optional<std::int64_t> on_view(const local::BallView& view) override {
    if (!view.covers_graph && static_cast<std::size_t>(view.radius) < target_radius_) {
      return std::nullopt;
    }
    const auto ring = local::try_extract_ring_view(view, ring_scratch_);
    AVGLOCAL_REQUIRE_MSG(ring.has_value(), "Cole-Vishkin requires an oriented cycle");
    Buffer buffer{};
    if (ring->closed) {
      // Small ring: replay the schedule on the whole cycle.
      const std::size_t n = ring->seen_count();
      AVGLOCAL_REQUIRE_MSG(n <= buffer.size(), "closed ring wider than the schedule radius");
      buffer[0] = ring->own;
      std::copy(ring->cw.begin(), ring->cw.end(), buffer.begin() + 1);
      const std::span<std::uint64_t> colours(buffer.data(), n);
      cv_colour_ring(colours, t6_);
      return static_cast<std::int64_t>(colours[0]);
    }
    // Open segment: the final colour of a vertex depends on 3 predecessors
    // and t6+3 successors; our radius-T ball provides both.
    const std::size_t after = static_cast<std::size_t>(t6_) + 3;
    AVGLOCAL_REQUIRE(ring->ccw.size() >= 3 && ring->cw.size() >= after);
    for (std::size_t i = 0; i < 3; ++i) buffer[i] = ring->ccw[2 - i];
    buffer[3] = ring->own;
    std::copy_n(ring->cw.begin(), after, buffer.begin() + 4);
    const SegmentColours colours =
        cv_colour_segment(std::span<std::uint64_t>(buffer.data(), 4 + after), t6_);
    return static_cast<std::int64_t>(colours.at(3));  // own position
  }

  /// No per-vertex state; the ring scratch keeps its capacity.
  bool reset() noexcept override { return true; }

  /// Waits for the fixed schedule radius unless the ball closes first.
  std::size_t min_radius() const noexcept override { return target_radius_; }

 private:
  /// Stack buffer the identifiers are coloured in. A ball closes by the
  /// schedule radius T <= kMaxCvScheduleRounds only on a ring of at most
  /// 2T+1 vertices; an open window holds t6+7 identifiers.
  static constexpr std::size_t kBufferCapacity = 2 * kMaxCvScheduleRounds + 1;
  static_assert(kMaxCvIterations + 7 <= kBufferCapacity);
  using Buffer = std::array<std::uint64_t, kBufferCapacity>;

  int t6_;
  std::size_t target_radius_;
  local::RingScratch ring_scratch_;
};

}  // namespace

local::AlgorithmFactory make_cole_vishkin_messages() {
  return [] { return std::make_unique<ColeVishkinMessages>(); };
}

local::ViewAlgorithmFactory make_cole_vishkin_view(std::size_t n) {
  return [n] { return std::make_unique<ColeVishkinView>(n); };
}

}  // namespace avglocal::algo
