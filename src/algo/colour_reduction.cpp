#include "algo/colour_reduction.hpp"

#include <bit>

#include "support/annotations.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"

namespace avglocal::algo {

std::uint64_t cv_reduce(std::uint64_t colour, std::uint64_t successor_colour) {
  AVGLOCAL_EXPECTS_MSG(colour != successor_colour, "cv_reduce needs a valid colouring");
  const int i = std::countr_zero(colour ^ successor_colour);
  const std::uint64_t bit = (colour >> i) & 1u;
  return 2 * static_cast<std::uint64_t>(i) + bit;
}

namespace {

/// The level recurrence behind cv_iterations_to_six, usable at compile time.
constexpr int iterations_to_six(int bits) noexcept {
  // Colours < 2^L map to colours <= 2*(L-1)+1, i.e. < 2^bit_width(2L-1).
  int level = bits;
  int steps = 0;
  while (level > 3) {
    level = std::bit_width(static_cast<std::uint64_t>(2 * level - 1));
    ++steps;
  }
  // One more step takes colours < 8 (3 bits) to colours < 6.
  return steps + 1;
}

static_assert(iterations_to_six(64) == kMaxCvIterations,
              "kMaxCvIterations must bound the schedule of every 64-bit n");

}  // namespace

int cv_iterations_to_six(int bits) {
  AVGLOCAL_EXPECTS(bits >= 1 && bits <= 64);
  return iterations_to_six(bits);
}

std::size_t cv_schedule_rounds(std::size_t n) {
  AVGLOCAL_EXPECTS(n >= 2);
  const int bits = support::bit_width_u64(n);
  return static_cast<std::size_t>(cv_iterations_to_six(bits)) + 3;
}

namespace {

/// Greedy recolour: the smallest colour in {0,1,2} used by neither
/// neighbour. Valid whenever at most two values are excluded.
std::uint64_t smallest_free(std::uint64_t left, std::uint64_t right) {
  for (std::uint64_t c = 0; c < 3; ++c) {
    if (c != left && c != right) return c;
  }
  AVGLOCAL_REQUIRE_MSG(false, "no free colour below 3 with two exclusions");
  return 0;  // unreachable
}

}  // namespace

void cv_colour_ring(std::span<std::uint64_t> ring, int t6) {
  const std::size_t n = ring.size();
  AVGLOCAL_EXPECTS(n >= 3);
  // In place: ascending i reads ring[i+1] before it is overwritten, so
  // only the wrap-around successor of the last position needs saving.
  for (int k = 0; k < t6; ++k) {
    const std::uint64_t first = ring[0];
    for (std::size_t i = 0; i + 1 < n; ++i) ring[i] = cv_reduce(ring[i], ring[i + 1]);
    ring[n - 1] = cv_reduce(ring[n - 1], first);
  }
  // Recolouring class cls in place equals a simultaneous step: the
  // colouring is valid, so no neighbour of a cls vertex is in cls, and
  // every value an update reads is one this step leaves unchanged.
  for (std::uint64_t cls = 5; cls >= 3; --cls) {
    for (std::size_t i = 0; i < n; ++i) {
      if (ring[i] == cls) ring[i] = smallest_free(ring[(i + n - 1) % n], ring[(i + 1) % n]);
    }
  }
}

AVGLOCAL_HOT SegmentColours cv_colour_segment(std::span<std::uint64_t> window, int t6) {
  const std::size_t m = window.size();
  AVGLOCAL_EXPECTS_MSG(m >= static_cast<std::size_t>(t6) + 7,
                       "window too small for any final colour");
  // Reduction: after iteration k, colours are valid for positions
  // [0, m-1-k]. Run in place over a shrinking suffix bound.
  std::size_t valid_end = m - 1;  // inclusive
  for (int k = 0; k < t6; ++k) {
    for (std::size_t j = 0; j < valid_end; ++j) window[j] = cv_reduce(window[j], window[j + 1]);
    --valid_end;
  }
  // Eliminations consume one position from each side per step; in place
  // for the same reason as in cv_colour_ring. The two boundary positions
  // of each step are never written.
  std::size_t lo = 0;
  for (std::uint64_t cls = 5; cls >= 3; --cls) {
    for (std::size_t j = lo + 1; j < valid_end; ++j) {
      if (window[j] == cls) window[j] = smallest_free(window[j - 1], window[j + 1]);
    }
    ++lo;
    --valid_end;
  }
  // lo == 3: the final colours are window[3 .. m-t6-4].
  return {lo, std::span<const std::uint64_t>(window).subspan(lo, valid_end + 1 - lo)};
}

}  // namespace avglocal::algo
