#include "graph/ids.hpp"

#include <algorithm>
#include <numeric>

#include "support/assert.hpp"
#include "support/narrow.hpp"

namespace avglocal::graph {

namespace {

bool all_distinct(std::span<const std::uint64_t> ids) {
  std::vector<std::uint64_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

/// The trusted constructors' contract: ids is a permutation of {1..n}.
/// Checked with one n-bit mark vector instead of a sorted 8n-byte copy, so
/// debug builds do not inflate the per-assignment footprint that the sweep
/// memory model is measured against.
[[maybe_unused]] bool is_permutation_of_1_to_n(std::span<const std::uint64_t> ids) {
  std::vector<bool> seen(ids.size(), false);
  for (const std::uint64_t id : ids) {
    if (id == 0 || id > ids.size() || seen[id - 1]) return false;
    seen[id - 1] = true;
  }
  return true;
}

}  // namespace

IdAssignment::IdAssignment(std::vector<std::uint64_t> ids)
    : ids_(ids.begin(), ids.end()) {
  AVGLOCAL_EXPECTS_MSG(!ids_.empty(), "empty id assignment");
  AVGLOCAL_EXPECTS_MSG(all_distinct(ids_), "identifiers must be pairwise distinct");
  AVGLOCAL_ASSERT(support::is_aligned(ids_.data()));
}

IdAssignment::IdAssignment(support::AlignedVector<std::uint64_t> ids, Trusted)
    : ids_(std::move(ids)) {
  AVGLOCAL_ASSERT(!ids_.empty());
  AVGLOCAL_ASSERT(is_permutation_of_1_to_n(ids_));
  AVGLOCAL_ASSERT(support::is_aligned(ids_.data()));
}

IdAssignment IdAssignment::identity(std::size_t n) {
  support::AlignedVector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{1});
  return IdAssignment(std::move(ids), Trusted{});
}

IdAssignment IdAssignment::reversed(std::size_t n) {
  support::AlignedVector<std::uint64_t> ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = n - v;
  return IdAssignment(std::move(ids), Trusted{});
}

IdAssignment IdAssignment::random(std::size_t n, support::Xoshiro256& rng) {
  // The sweep hot loop: fill {1..n} straight into the aligned storage and
  // shuffle in place - one allocation per trial (pinned by
  // test_engine_alloc), no std::vector round-trip.
  support::AlignedVector<std::uint64_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::uint64_t{1});
  support::shuffle(std::span<std::uint64_t>(ids), rng);
  return IdAssignment(std::move(ids), Trusted{});
}

std::uint32_t IdAssignment::argmax() const noexcept {
  const auto it = std::max_element(ids_.begin(), ids_.end());
  return support::checked_u32(it - ids_.begin());
}

IdAssignment IdAssignment::with_swapped(std::uint32_t u, std::uint32_t v) const {
  AVGLOCAL_EXPECTS(u < ids_.size() && v < ids_.size());
  IdAssignment copy = *this;
  std::swap(copy.ids_[u], copy.ids_[v]);
  return copy;
}

}  // namespace avglocal::graph
