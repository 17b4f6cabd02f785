// Shared instrumentation workload for the zero-allocation gate: used by
// tests/test_engine_alloc.cpp and bench/bench_regression.cpp so both
// measure the exact same engine duty cycle. (Each binary still installs
// its own AVGLOCAL_DEFINE_ALLOC_HOOK; this header only defines the
// workload and the per-round sampler.)
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "local/engine.hpp"
#include "local/trace.hpp"
#include "support/alloc_hook.hpp"

namespace avglocal::local {

/// Broadcasts a fixed two-word payload from member storage every round and
/// outputs at `output_round`: every arc carries a message every round, and
/// the engine is the only possible allocator.
class FloodRelay final : public Algorithm {
 public:
  explicit FloodRelay(std::size_t output_round) : output_round_(output_round) {}

  void on_start(NodeContext& ctx) override {
    words_[0] = ctx.id();
    words_[1] = 0;
    ctx.broadcast(words_);
  }

  void on_round(NodeContext& ctx, std::span<const Message> inbox) override {
    words_[1] = inbox.size();
    ctx.broadcast(words_);
    if (!ctx.has_output() && ctx.round() >= output_round_) {
      ctx.output(static_cast<std::int64_t>(ctx.id()));
    }
  }

  /// on_start rewrites all member state, so batch reuse is free.
  bool reset() noexcept override { return true; }

 private:
  std::size_t output_round_;
  std::array<std::uint64_t, 2> words_{};
};

/// Trace that snapshots the global allocation counters after every round.
/// Each sample carries its round number, so a batch of runs splits into
/// trials at the round-0 samples.
class AllocSampler final : public Trace {
 public:
  struct Sample : support::AllocCounts {
    std::size_t round = 0;
  };

  /// Reserves room for `expected_rounds` + 2 samples; recording past that
  /// grows the buffer, which the counters then see.
  explicit AllocSampler(std::size_t expected_rounds) { samples_.reserve(expected_rounds + 2); }

  void record(const RoundStats& stats) override {
    samples_.push_back({support::alloc_counts(), stats.round});
  }

  const std::vector<Sample>& samples() const noexcept { return samples_; }

  /// Worst per-round counter delta over rounds in [warmup, end).
  support::AllocCounts worst_after(std::size_t warmup) const {
    support::AllocCounts worst;
    for (std::size_t i = warmup; i + 1 < samples_.size(); ++i) {
      worst.allocations =
          std::max(worst.allocations, samples_[i + 1].allocations - samples_[i].allocations);
      worst.bytes = std::max(worst.bytes, samples_[i + 1].bytes - samples_[i].bytes);
    }
    return worst;
  }

 private:
  std::vector<Sample> samples_;
};

}  // namespace avglocal::local
