// The content-addressed result cache behind sweep-as-a-service: memoised
// exact-integer partials, so repeated and extended sweep requests pay only
// for trials nobody has run yet.
//
// Identity and the extension trick. A workload's cache key is
// scenario_cache_key(resolved spec) - the canonical scenario block minus
// the trial schedule. Everything inside the key changes what a trial
// computes; the schedule only changes how many trials are requested. Each
// cache entry therefore holds, per sweep point, one PointAccumulator
// covering trials [0, E): exact integers, so a request for T > E trials
// runs only [E, T) and appends - and the PointAccumulator::append contract
// (core/batched_sweep.hpp) makes the result bit-identical to a monolithic
// T-trial sweep. Floats appear only at finalize_point, in global trial
// order, exactly like every other execution topology.
//
// What stays resident. An entry keeps only the partials and the finalized
// report documents, memoised per full schedule (the schedule appears in
// the report bytes), so an exact repeat is a pure string copy: zero sweep
// trials, zero finalize work. Graphs and engines are not kept: a miss, an
// extension or a shorter-than-cached recompute runs run_scenario_shard on
// the cache's pool, which builds them for that request and frees them on
// return. The rebuild is small next to the trials it serves: at n=65536 a
// local3 cycle extension rebuilds the graph in ~2 ms and each message lane
// in ~8-10 ms (~2.5 ms more to free it), against 0.6-0.9 s for 16 trials
// on two lanes. stats() prices what stays (partial_bytes, report_bytes).
//
// Fixed schedules only. Adaptive schedules decide their own trial count
// from convergence checks at schedule-dependent boundaries; two adaptive
// requests with different min_trials/batch can legitimately stop at
// different T, so "extend the cached partial" has no canonical meaning.
// sweep() rejects them with std::invalid_argument; run them through
// run_scenario.
//
// Thread safety: sweep()/stats()/entry_count() are safe to call from any
// thread. Compute is serialised internally (one sweep at a time - the
// shared worker pool runs one job at a time by contract); concurrency
// above the cache comes from queueing requests, not from parallel sweeps.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/scenario.hpp"
#include "support/thread_pool.hpp"

namespace avglocal::core {

/// Execution knobs for the cache's owned worker pool. Like
/// ScenarioExecution these never change results, only speed.
struct ResultCacheOptions {
  /// Worker threads for the shared sweep pool; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// BatchedSweepOptions::batch_size for cache-run sweeps (memory bound).
  std::size_t batch_size = 0;
};

/// Monotone counters over the cache's lifetime (reported by the daemon's
/// `stats` op and asserted by tests).
struct ResultCacheStats {
  std::uint64_t requests = 0;        ///< sweep() calls that resolved
  std::uint64_t full_hits = 0;       ///< served with zero sweep trials
  std::uint64_t extensions = 0;      ///< cached partial + fresh tail
  std::uint64_t misses = 0;          ///< all requested trials computed
  std::uint64_t trials_computed = 0; ///< sweep trials run, summed over points
  std::uint64_t entries = 0;         ///< resident workload entries
  /// Current resident bytes by class - together the entries' whole cost:
  std::uint64_t partial_bytes = 0;   ///< words in the partials' vectors
  std::uint64_t report_bytes = 0;    ///< memoised report documents
};

/// One served request: the report document plus how it was produced.
struct ResultCacheOutcome {
  std::string report;  ///< sweep report JSON, byte-identical to run_scenario's
  std::string key;     ///< scenario_cache_key of the resolved workload
  /// Sweep trials actually computed for this request, summed over points
  /// (0 for a warm hit; (T - E) * points for an extension).
  std::uint64_t trials_computed = 0;
  bool warm = false;   ///< true iff trials_computed == 0
};

class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;
  ~ResultCache();

  /// Serves one sweep request: resolves the spec, locates (or creates) the
  /// workload entry, computes exactly the trials the cache is missing and
  /// returns the finalized report - byte-identical to what run_scenario +
  /// sweep_report_json produce for the same spec. Throws
  /// std::invalid_argument for unresolvable specs and adaptive schedules.
  ResultCacheOutcome sweep(const ScenarioSpec& spec);

  ResultCacheStats stats() const;
  std::size_t entry_count() const;

 private:
  struct Entry;

  mutable std::mutex mutex_;
  ResultCacheOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;
  // Ordered map: lint forbids unordered iteration, and entry counts are
  // tiny (one per distinct workload) - lookup cost is irrelevant next to
  // a single trial.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  ResultCacheStats stats_;
};

}  // namespace avglocal::core
