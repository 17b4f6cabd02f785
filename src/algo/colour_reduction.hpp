// Cole-Vishkin bit-reduction primitives and deterministic schedule
// simulators, shared by the known-n colouring, the view-formulation
// colouring, and the ring MIS algorithm.
//
// The classic iteration [Cole & Vishkin 1986]: on an oriented ring carrying
// a valid colouring, each vertex compares its colour with its successor's,
// finds the lowest differing bit i, and adopts colour 2*i + (own bit i).
// Validity is preserved and the palette shrinks log-star fast; from colours
// below 2^3 one further step lands below 6. Three class-elimination rounds
// (5, then 4, then 3) finish the job: same-class vertices are never adjacent
// in a valid colouring, so a whole class can safely recolour greedily at
// once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "support/assert.hpp"

namespace avglocal::algo {

/// One bit-reduction step. Requires colour != successor_colour.
std::uint64_t cv_reduce(std::uint64_t colour, std::uint64_t successor_colour);

/// Number of cv_reduce iterations that brings *any* valid colouring with
/// colours < 2^bits down to colours < 6, uniformly over all vertices.
/// Grows as log*(2^bits).
int cv_iterations_to_six(int bits);

/// cv_iterations_to_six(64): no 64-bit identifier space needs more
/// reductions (pinned by a static_assert next to the schedule). This is what
/// bounds every Cole-Vishkin window, and the closed rings the view
/// algorithms replay, to a few dozen identifiers - small enough to colour in
/// fixed-capacity stack arrays.
inline constexpr int kMaxCvIterations = 4;

/// cv_schedule_rounds(n) for every 64-bit n: kMaxCvIterations + 3.
inline constexpr std::size_t kMaxCvScheduleRounds = kMaxCvIterations + 3;

/// Total rounds of the known-n schedule for identifiers in [1, n]:
/// cv_iterations_to_six(bit_width(n)) reduction rounds plus 3 eliminations.
std::size_t cv_schedule_rounds(std::size_t n);

/// Simulates the full schedule on a complete ring, in place: on entry
/// `ring` holds the identifiers in clockwise order (ring[i+1] is the
/// successor of ring[i], wrapping around); `t6` reduction iterations, then
/// eliminations; on return it holds the final 3-colouring, indexed alike.
void cv_colour_ring(std::span<std::uint64_t> ring, int t6);

/// Final colours of a clockwise window of a larger ring (see
/// cv_colour_segment). Non-owning: `colours` points into the window the
/// segment was coloured in.
struct SegmentColours {
  /// Window index of colours.front().
  std::size_t first = 0;
  std::span<const std::uint64_t> colours;

  /// Final colour of window position j; j must lie in the valid range.
  std::uint64_t at(std::size_t j) const {
    AVGLOCAL_EXPECTS(has(j));
    return colours[j - first];
  }

  bool has(std::size_t j) const { return j >= first && j - first < colours.size(); }
};

/// Simulates the schedule on a clockwise window of a larger ring, in place:
/// on entry `window` holds the identifiers, on return the positions the
/// result covers hold their final colours (the others hold intermediate
/// values). The final colour of window position j is determined by
/// positions [j-3, j+t6+3]; positions whose dependencies fall outside the
/// window are reported as absent.
SegmentColours cv_colour_segment(std::span<std::uint64_t> window, int t6);

}  // namespace avglocal::algo
