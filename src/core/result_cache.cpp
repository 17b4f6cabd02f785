#include "core/result_cache.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace avglocal::core {

/// Everything resident for one workload identity: exact integers and the
/// report bytes finalized from them - no graph, backend or engine state.
/// An entry exists only once its first computation succeeded,
/// so `partials` always holds one accumulator per sweep point.
struct ResultCache::Entry {
  /// Exact-integer partials covering trials [0, E) per point, E equal
  /// across points. E only ever grows (via PointAccumulator::append), so
  /// everything served from here is a prefix of the one canonical trial
  /// stream.
  std::vector<PointAccumulator> partials;
  /// Finalized report bytes keyed by the full canonical scenario JSON
  /// (identity plus schedule - the schedule appears in the report, so two
  /// schedules over one identity memoise separately).
  std::map<std::string, std::string> reports;
};

namespace {

/// Bytes in an accumulator's per-trial, per-vertex and histogram words.
std::uint64_t accumulator_bytes(const PointAccumulator& acc) {
  return sizeof(std::uint64_t) *
         (acc.trial_sum.size() + acc.trial_max.size() + acc.node_sum.size() +
          acc.trial_edge_sum.size() + acc.histogram.counts().size() +
          acc.edge_histogram.counts().size());
}

}  // namespace

ResultCache::ResultCache(const ResultCacheOptions& options)
    : options_(options), pool_(std::make_unique<support::ThreadPool>(options.threads)) {}

ResultCache::~ResultCache() = default;

ResultCacheOutcome ResultCache::sweep(const ScenarioSpec& spec) {
  const ResolvedScenario resolved = resolve_scenario(spec);
  if (resolved.spec.schedule.adaptive()) {
    throw std::invalid_argument(
        "result cache: adaptive schedules are not cacheable (their trial count "
        "depends on schedule-specific convergence checks); run them through "
        "run_scenario or request a fixed trial count");
  }
  // The request's canonical spec - the entry may have been created by a
  // request with a different schedule, so the report and the half-width
  // must come from this one.
  const ScenarioSpec& request_spec = resolved.spec;
  const std::size_t requested = request_spec.schedule.max_trials;

  ResultCacheOutcome outcome;
  outcome.key = scenario_cache_key(request_spec);
  const std::string memo_key = scenario_to_json(request_spec);

  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  const auto found = entries_.find(outcome.key);
  Entry* entry = found == entries_.end() ? nullptr : found->second.get();
  if (entry != nullptr) {
    const auto memo = entry->reports.find(memo_key);
    if (memo != entry->reports.end()) {
      ++stats_.full_hits;
      outcome.report = memo->second;
      outcome.warm = true;
      return outcome;
    }
  }

  // Every computation builds its graphs and engines for this request only
  // and releases them on return; only the exact integers stay. Nothing is
  // mutated until it succeeded, so a request that throws leaves the cache
  // as it found it.
  const std::size_t cached = entry == nullptr ? 0 : entry->partials.front().trial_count();
  BatchedSweepOptions options = resolved.sweep_options(requested);
  options.threads = options_.threads;
  options.batch_size = options_.batch_size;
  options.pool = pool_.get();
  std::vector<PointAccumulator> fresh;
  std::uint64_t computed = 0;
  if (cached != requested) {
    // An extension runs only the missing tail [cached, requested). A
    // request shorter than the cache recomputes [0, requested): histograms
    // and node sums aggregate over all trials and cannot be truncated, and
    // the cached partial stays untouched for future longer requests.
    const std::size_t begin = cached < requested ? cached : 0;
    fresh = run_scenario_shard(resolved, options,
                               SweepShard{0, request_spec.ns.size(), begin, requested});
    computed = static_cast<std::uint64_t>(requested - begin) * fresh.size();
  }

  const std::vector<PointAccumulator>* finals = &fresh;
  if (entry == nullptr) {
    entry = entries_.emplace(outcome.key, std::make_unique<Entry>()).first->second.get();
    entry->partials = std::move(fresh);
    stats_.entries = entries_.size();
    finals = &entry->partials;
  } else if (cached <= requested) {
    // The heart of the cache: append() verifies the ranges abut, so the
    // extended partial is bit-identical to a monolithic `requested`-trial
    // run.
    for (std::size_t index = 0; index < fresh.size(); ++index) {
      entry->partials[index].append(std::move(fresh[index]));
    }
    finals = &entry->partials;
  }

  if (computed == 0) {
    ++stats_.full_hits;
  } else if (cached == 0 || cached >= requested) {
    ++stats_.misses;
  } else {
    ++stats_.extensions;
  }
  stats_.trials_computed += computed;

  outcome.report = sweep_report_json(request_spec, finalize_scenario(request_spec, *finals).points);
  outcome.trials_computed = computed;
  outcome.warm = computed == 0;
  entry->reports.emplace(memo_key, outcome.report);
  return outcome;
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ResultCacheStats stats = stats_;
  for (const auto& [key, entry] : entries_) {
    for (const PointAccumulator& acc : entry->partials) stats.partial_bytes += accumulator_bytes(acc);
    for (const auto& [schedule, report] : entry->reports) stats.report_bytes += report.size();
  }
  return stats;
}

std::size_t ResultCache::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace avglocal::core
