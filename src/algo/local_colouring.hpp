// Locally-terminating 3-colouring of the oriented ring, NOT knowing n.
//
// The paper's model lets vertices output at different rounds while they keep
// relaying messages; the O(log* n) 3-colouring without knowledge of n it
// cites ([KSV13], [Musto11]) is not constructed there. This file implements
// our own such algorithm (this header documents the substitution):
//
//  * Reduce: every active vertex iterates Cole-Vishkin bit reduction against
//    its clockwise successor each round and *freezes* the first time its
//    colour drops below 6. Freezing is per-vertex and permanent, so vertices
//    whose neighbourhood identifiers converge quickly stop evolving early -
//    at the cost of occasional equal-colour conflicts at freeze boundaries.
//  * Repair: conflicts (two adjacent frozen vertices with equal colours) are
//    resolved by a priority rule - among adjacent conflicted vertices only
//    the one with the locally largest identifier recolours, to the smallest
//    colour below 6 unused by its neighbours. Decisions are taken on
//    coherent snapshots (a 3-round epoch: snapshot / announce candidacy /
//    move), so two adjacent vertices never recolour simultaneously.
//  * Eliminate: a frozen, conflict-free vertex whose neighbours are also
//    settled ("six-final") and whose colour c >= 3 is a strict local maximum
//    recolours into {0,1,2}; simultaneous movers are never adjacent because
//    of the strict comparison. A vertex outputs once it is six-final with a
//    colour below 3.
//
// Every intermediate state keeps the global invariant "adjacent frozen
// vertices differ except at unrepaired freeze boundaries", and every output
// is made only when no future rule can touch the vertex or its neighbours'
// relation to it; the test suite verifies validity exhaustively on small
// rings and statistically on large ones. Per-vertex radius is
// O(log* n) + O(1) repair epochs.
#pragma once

#include "local/engine.hpp"

namespace avglocal::algo {

/// Message-passing unknown-n 3-colouring (oriented cycles, port convention
/// of make_cycle). Run with Knowledge::kUnknownN; the algorithm never reads n.
local::AlgorithmFactory make_local_three_colouring();

}  // namespace avglocal::algo
