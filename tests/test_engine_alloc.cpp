// Verifies the flat-memory claims of the message engine with a real
// allocation counter: after a short warm-up in which the arena and inbox
// grow to their high-water marks, the engine's round loop must perform
// zero heap allocations. The same hook pins the view algorithms' reset() +
// on_view cycle at zero after warm-up. Also unit-tests the MessageArena.
//
// This binary installs the allocation-counting global operator new/delete;
// it must stay its own test executable.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/flood_probe.hpp"
#include "local/message_arena.hpp"
#include "local/view_eval_probe.hpp"
#include "support/alloc_hook.hpp"
#include "support/rng.hpp"

AVGLOCAL_DEFINE_ALLOC_HOOK();

namespace {

using namespace avglocal;
using local::AllocSampler;
using local::FloodRelay;

TEST(IdAssignmentAlloc, RandomUsesTrustedValidationPath) {
  // The sweep hot loop: IdAssignment::random is a permutation by
  // construction, so it must not pay the public constructor's
  // sort-and-check (which costs O(n log n) plus a second vector per trial).
  // Pin the allocation count: exactly one (the id vector itself). Debug
  // builds assert distinctness through a sorted copy, so the pin only holds
  // with asserts compiled out.
  support::Xoshiro256 rng(7);
  {  // warm up: gtest bookkeeping and the rng stream must not count
    const auto ids = graph::IdAssignment::random(4096, rng);
    ASSERT_EQ(ids.size(), 4096u);
  }
#ifdef NDEBUG
  const auto before = support::alloc_counts();
  const auto ids = graph::IdAssignment::random(4096, rng);
  const auto after = support::alloc_counts();
  EXPECT_EQ(ids.size(), 4096u);
  EXPECT_EQ(after.allocations - before.allocations, 1u)
      << "random id assignments must allocate the id vector and nothing else";
  EXPECT_GE(after.bytes - before.bytes, 4096u * sizeof(std::uint64_t));
#else
  GTEST_SKIP() << "debug builds re-validate trusted ids (and may allocate doing so)";
#endif
}

TEST(AllocHook, CountsAllocations) {
  const auto before = support::alloc_counts();
  {
    std::vector<std::uint64_t> v(1024);
    ASSERT_EQ(v.size(), 1024u);
  }
  const auto after = support::alloc_counts();
  EXPECT_GT(after.allocations, before.allocations);
  EXPECT_GE(after.bytes - before.bytes, 1024u * sizeof(std::uint64_t));
}

TEST(AllocHook, ConcurrentCountsAreExact) {
  // The "allocs_per_round_after_warmup == 0" gates read these counters
  // around parallel sweeps, so concurrent ticks from every worker lane
  // must lose no updates. Hammer the hook from several threads and check
  // the deltas: any dropped increment shows up as a shortfall. (Lower
  // bounds, not equality - gtest and the thread runtime may allocate
  // concurrently, which only pushes the counters higher.)
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAllocsPerThread = 2000;
  constexpr std::size_t kBytesPerAlloc = 64;

  const auto before = support::alloc_counts();
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        // The escaping store keeps -O2 from eliding the new/delete pair.
        volatile std::uintptr_t sink = 0;
        for (std::size_t i = 0; i < kAllocsPerThread; ++i) {
          auto* p = new std::array<std::byte, kBytesPerAlloc>();
          sink = reinterpret_cast<std::uintptr_t>(p);  // avglocal-lint: allow(raw-entropy)
          delete p;
        }
        (void)sink;
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const auto after = support::alloc_counts();
  EXPECT_GE(after.allocations - before.allocations, kThreads * kAllocsPerThread)
      << "lost increments under concurrent allocation";
  EXPECT_GE(after.bytes - before.bytes, kThreads * kAllocsPerThread * kBytesPerAlloc);
}

TEST(MessageEngineAlloc, SteadyStateRoundsAreAllocationFree) {
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kWarmupRounds = 3;
  const auto g = graph::make_cycle(64);
  const auto ids = graph::IdAssignment::identity(64);

  AllocSampler sampler(kRounds);
  local::EngineOptions options;
  options.trace = &sampler;
  const auto run = local::run_messages(
      g, ids, [] { return std::make_unique<FloodRelay>(std::size_t{kRounds}); }, options);
  EXPECT_EQ(run.rounds, kRounds);

  const auto& samples = sampler.samples();
  ASSERT_GT(samples.size(), kWarmupRounds + 1);
  for (std::size_t i = kWarmupRounds; i + 1 < samples.size(); ++i) {
    EXPECT_EQ(samples[i + 1].allocations - samples[i].allocations, 0u)
        << "round " << i + 1 << " allocated";
    EXPECT_EQ(samples[i + 1].bytes - samples[i].bytes, 0u) << "round " << i + 1;
  }
}

// Same claim on a topology with degree spread (star: hub degree n-1), so
// the inbox high-water mark is exercised by the hub every round.
TEST(MessageEngineAlloc, SteadyStateOnStar) {
  constexpr std::size_t kRounds = 30;
  const auto g = graph::make_star(33);
  const auto ids = graph::IdAssignment::identity(33);

  AllocSampler sampler(kRounds);
  local::EngineOptions options;
  options.trace = &sampler;
  local::run_messages(g, ids, [] { return std::make_unique<FloodRelay>(std::size_t{kRounds}); }, options);

  const auto& samples = sampler.samples();
  ASSERT_GT(samples.size(), 4u);
  for (std::size_t i = 3; i + 1 < samples.size(); ++i) {
    EXPECT_EQ(samples[i + 1].allocations - samples[i].allocations, 0u)
        << "round " << i + 1 << " allocated";
  }
}

// The view engine's per-(vertex, trial) duty cycle: the batched engine
// keeps one instance per trial slot and calls reset() + on_view on it. For
// every registry view algorithm, once an instance has evaluated the largest
// view, further evaluations of equal or smaller views must not touch the
// heap - on open ring windows (n=1024, radii up to 12, past every
// schedule radius) and on closed rings (n=9 covers at radius 4).
TEST(ViewEvalAlloc, RegistryViewAlgorithmsAreAllocationFreeAfterWarmup) {
#ifdef NDEBUG
  constexpr std::size_t kCalls = 1000;
  const auto& registry = algo::AlgorithmRegistry::global();
  const auto names = registry.names(algo::AlgorithmKind::kView);
  ASSERT_GE(names.size(), 5u);
  struct Ring {
    std::size_t n;
    std::size_t max_radius;
  };
  for (const Ring ring : {Ring{1024, 12}, Ring{9, 4}}) {
    support::Xoshiro256 rng(ring.n);
    const auto g = graph::make_cycle(ring.n);
    const auto ids = graph::IdAssignment::random(ring.n, rng);
    const auto views = local::grown_views(g, ids, ring.max_radius, /*roots=*/4);
    for (const std::string& name : names) {
      const local::ViewAlgorithmFactory factory = registry.at(name).view(ring.n);
      const auto counts = local::view_eval_allocs_after_warmup(factory, views, kCalls);
      EXPECT_EQ(counts.allocations, 0u) << name << " allocated on the n=" << ring.n << " ring";
      EXPECT_EQ(counts.bytes, 0u) << name << " n=" << ring.n;
    }
  }
#else
  GTEST_SKIP() << "debug builds may allocate in assertion paths";
#endif
}

// The message engine's per-trial duty cycle as a sweep drives it: one
// MessageBatchRunner per point, rebound per trial. Every registry message
// algorithm runs with its registered knowledge on a ring. One warm-up
// trial lets the arenas, the result buffers and any amortised scratch
// (largest-id-msg's token table grows through its whole first run) reach
// their high-water marks; a warm runner then serves further trials without
// touching the heap: per round, under bench_regression's message_sweep
// warm-up rule, and per trial, bind and result hand-off included.
TEST(MessageRoundAlloc, RegistryMessageAlgorithmsAreAllocationFreeAfterWarmup) {
#ifdef NDEBUG
  constexpr std::size_t kN = 64;
  constexpr std::size_t kTrials = 3;
  const auto& registry = algo::AlgorithmRegistry::global();
  const auto names = registry.names(algo::AlgorithmKind::kMessage);
  ASSERT_GE(names.size(), 4u);
  const auto g = graph::make_cycle(kN);
  std::vector<graph::IdAssignment> batch;
  support::Xoshiro256 rng(kN);
  for (std::size_t t = 0; t <= kTrials; ++t) batch.push_back(graph::IdAssignment::random(kN, rng));
  std::uint64_t radius_sum = 0;
  const local::MessageResultFn sink = [&radius_sum](std::size_t, graph::Vertex, std::int64_t,
                                                    std::size_t radius) { radius_sum += radius; };

  for (const std::string& name : names) {
    const algo::AlgorithmInfo& info = registry.at(name);
    AllocSampler sampler(kN * (kTrials + 1) * 4);
    local::EngineOptions options;
    options.knowledge = info.knowledge;
    options.trace = &sampler;
    local::MessageBatchRunner runner(g, info.messages(kN), options);
    runner.run({batch.data(), 1}, sink);
    const std::size_t warm = sampler.samples().size();

    const auto before = support::alloc_counts();
    runner.run({batch.data() + 1, kTrials}, sink);
    const auto after = support::alloc_counts();
    const auto& samples = sampler.samples();
    ASSERT_LT(samples.size(), kN * (kTrials + 1) * 4) << name << ": sampler outgrew its reserve";

    // Per round, under bench_regression's rule: a round-0 sample opens a
    // trial; rounds 1-3 of the first trial and round 1 of later trials
    // count as warm-up.
    std::size_t trial = 0;
    std::vector<std::size_t> trial_starts;
    for (std::size_t i = warm; i < samples.size(); ++i) {
      if (samples[i].round == 0) {
        if (i > warm) ++trial;
        trial_starts.push_back(i);
        continue;
      }
      if (samples[i].round < (trial == 0 ? 4u : 2u)) continue;
      EXPECT_EQ(samples[i].allocations - samples[i - 1].allocations, 0u)
          << name << ": trial " << trial << " round " << samples[i].round << " allocated";
      EXPECT_EQ(samples[i].bytes - samples[i - 1].bytes, 0u) << name << " trial " << trial;
    }
    ASSERT_EQ(trial_starts.size(), kTrials) << name;

    // Per trial: from each trial's round 0 to the next trial's (or the end
    // of the batch), so every bind, result hand-off and sink call counts.
    for (std::size_t t = 0; t < kTrials; ++t) {
      const support::AllocCounts end = t + 1 < kTrials ? samples[trial_starts[t + 1]] : after;
      EXPECT_EQ(end.allocations - samples[trial_starts[t]].allocations, 0u)
          << name << ": trial " << t << " allocated";
    }
    EXPECT_EQ(samples[trial_starts[0]].allocations - before.allocations, 0u)
        << name << ": binding the first measured trial allocated";
  }
  EXPECT_GT(radius_sum, 0u);
#else
  GTEST_SKIP() << "debug builds may allocate in assertion paths";
#endif
}

TEST(MessageArena, PushHasPayloadRoundTrip) {
  local::MessageArena arena;
  arena.attach(10);
  const std::array<std::uint64_t, 3> words{7, 8, 9};
  EXPECT_FALSE(arena.has(4));
  EXPECT_TRUE(arena.push(4, words));
  EXPECT_TRUE(arena.has(4));
  const auto payload = arena.payload(4);
  ASSERT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload[0], 7u);
  EXPECT_EQ(payload[2], 9u);
  EXPECT_EQ(arena.message_count(), 1u);
  EXPECT_EQ(arena.word_count(), 3u);
}

TEST(MessageArena, SecondPushOnSameArcIsRejected) {
  local::MessageArena arena;
  arena.attach(4);
  const std::array<std::uint64_t, 1> words{1};
  EXPECT_TRUE(arena.push(2, words));
  EXPECT_FALSE(arena.push(2, words)) << "one message per arc per round";
  EXPECT_EQ(arena.message_count(), 1u);
}

TEST(MessageArena, BeginRoundForgetsMessagesAndKeepsGoing) {
  local::MessageArena arena;
  arena.attach(128);
  const std::array<std::uint64_t, 2> words{5, 6};
  for (std::size_t arc = 0; arc < 128; ++arc) EXPECT_TRUE(arena.push(arc, words));
  arena.begin_round();
  EXPECT_EQ(arena.message_count(), 0u);
  EXPECT_EQ(arena.word_count(), 0u);
  for (std::size_t arc = 0; arc < 128; ++arc) {
    EXPECT_FALSE(arena.has(arc));
    EXPECT_TRUE(arena.push(arc, words));
  }
}

TEST(MessageArena, EmptyPayloadIsAMessage) {
  local::MessageArena arena;
  arena.attach(2);
  EXPECT_TRUE(arena.push(1, {}));
  EXPECT_TRUE(arena.has(1));
  EXPECT_EQ(arena.payload(1).size(), 0u);
  EXPECT_EQ(arena.message_count(), 1u);
}

}  // namespace
