#include "algo/mis_ring.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>

#include "algo/colour_reduction.hpp"
#include "local/view.hpp"
#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

namespace {

/// Greedy class-by-class admission given the 3-colour of a vertex and of
/// enough context. in(v) for class 0 is immediate; class 1 needs the
/// neighbours' colours; class 2 needs neighbours' membership, i.e. colours
/// at distance up to 2.
bool mis_member(std::uint64_t c_mm, std::uint64_t c_m, std::uint64_t c0, std::uint64_t c_p,
                std::uint64_t c_pp) {
  const auto in_class01 = [](std::uint64_t left, std::uint64_t self, std::uint64_t right) {
    if (self == 0) return true;
    if (self == 1) return left != 0 && right != 0;
    return false;  // class 2 handled by the caller
  };
  if (c0 == 0) return true;
  if (c0 == 1) return c_m != 0 && c_p != 0;
  // Class 2: join iff neither neighbour joined earlier.
  const bool left_in = in_class01(c_mm, c_m, c0);
  const bool right_in = in_class01(c0, c_p, c_pp);
  return !left_in && !right_in;
}

class MisRingView final : public local::ViewAlgorithm {
 public:
  explicit MisRingView(std::size_t n)
      : t6_(cv_iterations_to_six(support::bit_width_u64(n))),
        target_radius_(cv_schedule_rounds(n) + 2) {}

  AVGLOCAL_HOT std::optional<std::int64_t> on_view(const local::BallView& view) override {
    if (!view.covers_graph && static_cast<std::size_t>(view.radius) < target_radius_) {
      return std::nullopt;
    }
    const auto ring = local::try_extract_ring_view(view, ring_scratch_);
    AVGLOCAL_REQUIRE_MSG(ring.has_value(), "ring MIS requires an oriented cycle");
    Buffer buffer{};
    if (ring->closed) {
      const std::size_t n = ring->seen_count();
      AVGLOCAL_REQUIRE_MSG(n <= buffer.size(), "closed ring wider than the schedule radius");
      buffer[0] = ring->own;
      std::copy(ring->cw.begin(), ring->cw.end(), buffer.begin() + 1);
      const std::span<std::uint64_t> colours(buffer.data(), n);
      cv_colour_ring(colours, t6_);
      return mis_member(colours[n - 2], colours[n - 1], colours[0], colours[1], colours[2])
                 ? 1
                 : 0;
    }
    // Open segment: need final colours at offsets -2..+2, hence identifiers
    // at offsets [-5, t6+5].
    const std::size_t after = static_cast<std::size_t>(t6_) + 5;
    AVGLOCAL_REQUIRE(ring->ccw.size() >= 5 && ring->cw.size() >= after);
    for (std::size_t i = 0; i < 5; ++i) buffer[i] = ring->ccw[4 - i];
    buffer[5] = ring->own;  // window index 5
    std::copy_n(ring->cw.begin(), after, buffer.begin() + 6);
    const SegmentColours colours =
        cv_colour_segment(std::span<std::uint64_t>(buffer.data(), 6 + after), t6_);
    return mis_member(colours.at(3), colours.at(4), colours.at(5), colours.at(6),
                      colours.at(7))
               ? 1
               : 0;
  }

  /// No per-vertex state; the ring scratch keeps its capacity.
  bool reset() noexcept override { return true; }

  /// Waits for the fixed schedule radius unless the ball closes first.
  std::size_t min_radius() const noexcept override { return target_radius_; }

 private:
  /// Stack buffer the identifiers are coloured in. A ball closes by the
  /// target radius T+2 <= kMaxCvScheduleRounds+2 only on a ring of at most
  /// 2(T+2)+1 vertices; an open window holds t6+11 identifiers.
  static constexpr std::size_t kBufferCapacity = 2 * (kMaxCvScheduleRounds + 2) + 1;
  static_assert(kMaxCvIterations + 11 <= kBufferCapacity);
  using Buffer = std::array<std::uint64_t, kBufferCapacity>;

  int t6_;
  std::size_t target_radius_;
  local::RingScratch ring_scratch_;
};

}  // namespace

local::ViewAlgorithmFactory make_mis_ring_view(std::size_t n) {
  return [n] { return std::make_unique<MisRingView>(n); };
}

}  // namespace avglocal::algo
