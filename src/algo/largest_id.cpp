#include "algo/largest_id.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "graph/properties.hpp"
#include "local/view.hpp"
#include "local/wire.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/narrow.hpp"

namespace avglocal::algo {

namespace {

/// Scans only identifiers appended since the previous call: the engine grows
/// views append-only, so each vertex costs O(final ball size) in total.
class LargestIdView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    for (; scanned_ < view.size(); ++scanned_) {
      if (view.ids[scanned_] > view.root_id()) return kNo;
    }
    if (view.covers_graph) return kYes;
    return std::nullopt;
  }

  bool reset() noexcept override {
    scanned_ = 0;
    return true;
  }

  /// A 1-vertex non-covering view can never contain a larger identifier.
  std::size_t min_radius() const noexcept override { return 1; }

  /// Only identifiers and coverage are consulted, never edges.
  bool ids_only_view() const noexcept override { return true; }

 private:
  std::size_t scanned_ = 0;
};

class LargestIdUniverseAwareView final : public local::ViewAlgorithm {
 public:
  std::optional<std::int64_t> on_view(const local::BallView& view) override {
    for (; scanned_ < view.size(); ++scanned_) {
      if (view.ids[scanned_] > view.root_id()) return kNo;
    }
    if (view.covers_graph) return kYes;
    // Open ball spanning at least x vertices: every completion is strictly
    // larger, and a permutation universe {1..n'} then contains an
    // identifier above x.
    if (view.size() >= view.root_id()) return kNo;
    return std::nullopt;
  }

  bool reset() noexcept override {
    scanned_ = 0;
    return true;
  }

  /// Only identifiers, ball size and coverage are consulted, never edges.
  bool ids_only_view() const noexcept override { return true; }

 private:
  std::size_t scanned_ = 0;
};

/// A node's token table: per origin identifier, the hop count at which its
/// token arrived on each side. Open addressing with linear probing over a
/// power-of-two slot array kept at most half full, indexed by Fibonacci
/// hashing of the origin. Hop counts are >= 1, so 0 marks a side not seen
/// yet and a slot with both sides 0 is free. clear() keeps the slots, so a
/// reused instance stops growing once the table has held the most origins
/// its node sees in one run.
class OriginTable {
 public:
  struct Entry {
    std::uint64_t origin = 0;
    std::array<std::uint64_t, 2> hops{};  ///< per side; 0 = not seen
  };

  /// Sets `origin`'s hop count on `side`, inserting the origin if new.
  const Entry& record(std::uint64_t origin, std::size_t side, std::uint64_t hops) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Entry& entry = probe(origin);
    if (is_free(entry)) {
      entry.origin = origin;
      ++size_;
    }
    entry.hops[side] = hops;
    return entry;
  }

  /// Number of distinct origins recorded.
  std::size_t size() const noexcept { return size_; }

  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), Entry{});
    size_ = 0;
  }

 private:
  static bool is_free(const Entry& e) noexcept { return e.hops[0] == 0 && e.hops[1] == 0; }

  /// The slot holding `origin`, or the free slot where it belongs.
  Entry& probe(std::uint64_t origin) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>((origin * 0x9E3779B97F4A7C15ull) >> shift_);
    while (!is_free(slots_[i]) && slots_[i].origin != origin) i = (i + 1) & mask;
    return slots_[i];
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), Entry{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Entry& e : old) {
      if (!is_free(e)) probe(e.origin) = e;
    }
  }

  std::vector<Entry> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;  ///< 64 - log2(slot count): the hash keeps the top bits
};

/// Message-passing variant: floods (origin, hops) tokens. See header.
///
/// Not AVGLOCAL_HOT: the token table and the relay buffers grow amortised
/// until they hold the most tokens their node sees in one run, so only the
/// runtime gate (MessageRoundAlloc in tests/test_engine_alloc.cpp) pins the
/// steady state at zero allocations.
class LargestIdMessages final : public local::Algorithm {
 public:
  void on_start(local::NodeContext& ctx) override {
    AVGLOCAL_REQUIRE_MSG(ctx.degree() == 2, "message largest-ID runs on cycles");
    const std::array<std::uint64_t, 3> token{1, ctx.id(), 1};  // (origin=self, hops=1)
    ctx.broadcast(token);
  }

  void on_round(local::NodeContext& ctx, std::span<const local::Message> inbox) override {
    // relay_[q] collects the tokens to relay out of port q this round, in
    // wire layout: a count word, then (origin, hops) pairs.
    for (std::vector<std::uint64_t>& words : relay_) words.assign(1, 0);
    for (const local::Message& msg : inbox) {
      std::vector<std::uint64_t>& relay = relay_[1 - msg.from_port];
      local::Decoder d(msg.payload);
      const std::uint64_t count = d.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t origin = d.u64();
        const std::uint64_t hops = d.u64();
        if (ingest(ctx, origin, hops, msg.from_port)) {
          relay.push_back(origin);
          relay.push_back(hops + 1);
          ++relay[0];
        }
      }
    }
    for (std::size_t q = 0; q < 2; ++q) {
      if (relay_[q][0] != 0) ctx.send(q, relay_[q]);
    }
    decide(ctx);
  }

  /// The token table and relay buffers keep their capacity.
  bool reset() noexcept override {
    best_ = 0;
    n_.reset();
    seen_.clear();
    return true;
  }

 private:
  /// Records a token; true when it should be relayed onwards, i.e. it is
  /// not our own and has not now arrived from both sides.
  bool ingest(local::NodeContext& ctx, std::uint64_t origin, std::uint64_t hops,
              std::size_t side) {
    best_ = std::max(best_, origin);
    if (origin == ctx.id()) {
      // Our own token went all the way around: hops == n.
      n_ = hops;
      return false;
    }
    const OriginTable::Entry& entry = seen_.record(origin, side, hops);
    if (entry.hops[0] == 0 || entry.hops[1] == 0) return true;
    n_ = entry.hops[0] + entry.hops[1];
    return false;
  }

  void decide(local::NodeContext& ctx) {
    if (ctx.has_output()) return;
    if (best_ > ctx.id()) {
      ctx.output(kNo);
    } else if (n_ && seen_.size() + 1 == *n_) {
      ctx.output(kYes);
    }
  }

  std::uint64_t best_ = 0;
  std::optional<std::size_t> n_;
  OriginTable seen_;
  std::array<std::vector<std::uint64_t>, 2> relay_;
};

}  // namespace

local::ViewAlgorithmFactory make_largest_id_view() {
  return [] { return std::make_unique<LargestIdView>(); };
}

local::ViewAlgorithmFactory make_largest_id_universe_aware_view() {
  return [] { return std::make_unique<LargestIdUniverseAwareView>(); };
}

local::AlgorithmFactory make_largest_id_messages() {
  return [] { return std::make_unique<LargestIdMessages>(); };
}

std::vector<std::size_t> largest_id_radii_on_cycle(const graph::IdAssignment& ids) {
  const std::size_t n = ids.size();
  AVGLOCAL_EXPECTS_MSG(n >= 3, "cycle needs at least 3 vertices");
  const std::size_t cover_radius = n / 2;  // == ceil((n-1)/2)

  // Distance to the nearest strictly larger identifier in each direction via
  // a monotonic stack over the doubled sequence (O(n)).
  std::vector<std::size_t> nearest(n, n);  // n = "none"
  const auto sweep = [&](bool rightwards) {
    std::vector<std::size_t> stack;  // positions with decreasing ids
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const std::size_t pos = rightwards ? (2 * n - 1 - step) % n : step % n;
      // Pop smaller-or-equal ids: they found their nearest greater at pos.
      while (!stack.empty() && ids.id_of(support::checked_u32(stack.back())) <
                                   ids.id_of(support::checked_u32(pos))) {
        const std::size_t w = stack.back();
        stack.pop_back();
        const std::size_t dist = rightwards ? (w + n - pos) % n : (pos + n - w) % n;
        if (dist != 0) nearest[w] = std::min(nearest[w], dist);
      }
      stack.push_back(pos);
    }
  };
  sweep(false);  // nearest greater scanning forward (distance measured cw)
  sweep(true);   // and backwards
  std::vector<std::size_t> radii(n);
  for (std::size_t v = 0; v < n; ++v) radii[v] = std::min(nearest[v], cover_radius);
  return radii;
}

std::uint64_t largest_id_radius_sum_on_cycle(const graph::IdAssignment& ids) {
  std::uint64_t sum = 0;
  for (std::size_t r : largest_id_radii_on_cycle(ids)) sum += r;
  return sum;
}

}  // namespace avglocal::algo
