// avglocal_cli: every bundled LOCAL algorithm on every graph family, by
// name, through the scenario registries - single runs, batched/adaptive
// sweeps, sharded sweeps, a resident daemon and a distributed fabric.
//
// Discover the workload space:
//   avglocal_cli list
//
// Single runs (the default subcommand; message algorithms included):
//   avglocal_cli --algo largest-id --graph cycle --n 1024 --seed 7
//   avglocal_cli --algo greedy --graph random-regular:degree=4 --n 4096
//   avglocal_cli --algo local3 --graph cycle --n 256 --csv radii.csv
//
// Batched sweeps (many id-assignments per graph in one pass); --target-hw
// turns on the adaptive trial schedule, which grows the trial count in
// batches until the avg-mean confidence interval closes:
//   avglocal_cli sweep --algo largest-id --graph torus --ns 256,1024,4096
//                      --trials 200 --seed 42 --json sweep.json
//   avglocal_cli sweep --algo cv3 --graph cycle --ns 4096 --trials 5000
//                      --target-hw 0.05 --min-trials 32 --adaptive-batch 64
//   avglocal_cli sweep --algo largest-id-msg --graph cycle --ns 1024 --trials 100
//                      (message algorithms sweep too; the registry picks the engine,
//                       and --threads parallelises trial ranges across worker engines)
//
// Sharded sweeps (run shard i of k anywhere, then merge the artefacts;
// the merge is bit-identical to the monolithic sweep):
//   avglocal_cli sweep --ns 1024,4096 --trials 1000 --shard 0/4 --out s0.json
//   ... shards 1/4, 2/4, 3/4 on other hosts ...
//   avglocal_cli merge --json sweep.json s0.json s1.json s2.json s3.json
//
// Or keep results resident: `serve` runs a daemon over a Unix-domain
// socket with a content-addressed result cache (repeat requests are free,
// trial extensions compute only the missing range), `request` is its
// client - the saved report is byte-identical to a one-shot sweep's:
//   avglocal_cli serve --socket /tmp/avglocal.sock --threads 4 &
//   avglocal_cli request --socket /tmp/avglocal.sock --algo largest-id
//                        --graph cycle --ns 1024 --trials 500 --json sweep.json
//   avglocal_cli request --socket /tmp/avglocal.sock --op shutdown
//
// Or stream the sweep across machines: `fabric-serve` is a coordinator
// that decomposes the sweep into (point, trial-range) work units pulled
// by `fabric-worker` processes over Unix-domain or TCP sockets, with
// work stealing and straggler re-dispatch - the merged report is
// byte-identical to the monolithic sweep's for any worker count:
//   avglocal_cli fabric-serve --listen tcp:0.0.0.0:7440 --algo largest-id
//                             --graph cycle --ns 1024 --trials 1000 --json sweep.json &
//   avglocal_cli fabric-worker --connect tcp:host:7440 --threads 4   (xN, any hosts)
//
// A local multi-process sweep is a fabric run with local workers (a dead
// worker's unit is re-dispatched; if every worker dies the launcher stops
// the coordinator and exits 1):
//   tools/fabric_launch.sh --cli avglocal_cli --workers "local local local local"
//       --json sweep.json -- --algo largest-id --graph gnp:avg-degree=6
//       --ns 1024,4096 --trials 1000
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/registry.hpp"
#include "core/fabric.hpp"
#include "core/measure.hpp"
#include "core/runner.hpp"
#include "core/scenario.hpp"
#include "core/serve.hpp"
#include "core/shard.hpp"
#include "graph/family_registry.hpp"
#include "graph/ids.hpp"
#include "local/engine.hpp"
#include "local/view_engine.hpp"
#include "support/connection_host.hpp"
#include "support/csv.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "support/socket.hpp"

namespace {

using namespace avglocal;

// ------------------------------------------------------------- helpers ----

local::ViewSemantics parse_semantics(const std::string& name) {
  const auto semantics = local::view_semantics_from_name(name);
  if (!semantics) throw std::invalid_argument("unknown semantics '" + name + "' (induced|flooding)");
  return *semantics;
}

// Checked numeric flag parsing. Bare std::stoull would throw an uncaught
// exception on garbage and - worse - silently wrap "-1" to 2^64-1, so
// every numeric flag goes through these: strict syntax (digits only /
// full-string doubles), overflow rejected, and on failure the offending
// flag is named on stderr and the parser bails with the usage exit (2).

using support::parse_u64;

std::optional<double> parse_f64(const std::string& text) {
  if (text.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

bool flag_error(const std::string& text, const char* flag) {
  std::cerr << "invalid value '" << text << "' for " << flag << "\n";
  return false;
}

bool u64_flag(const std::string& text, const char* flag, std::uint64_t& out) {
  const auto parsed = parse_u64(text);
  if (!parsed) return flag_error(text, flag);
  out = *parsed;
  return true;
}

bool size_flag(const std::string& text, const char* flag, std::size_t& out) {
  // size_t and uint64_t coincide on every platform this CLI targets.
  const auto parsed = parse_u64(text);
  if (!parsed) return flag_error(text, flag);
  out = static_cast<std::size_t>(*parsed);
  return true;
}

bool f64_flag(const std::string& text, const char* flag, double& out) {
  const auto parsed = parse_f64(text);
  if (!parsed) return flag_error(text, flag);
  out = *parsed;
  return true;
}

bool size_list_flag(const std::string& text, const char* flag, std::vector<std::size_t>& out) {
  std::vector<std::size_t> values;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto parsed = parse_u64(item);
    if (!parsed) return flag_error(text, flag);
    values.push_back(static_cast<std::size_t>(*parsed));
  }
  if (values.empty()) return flag_error(text, flag);
  out = std::move(values);
  return true;
}

enum class FlagParse { kTaken, kNotMine, kBad };

/// The workload flags of every subcommand that names a sweep (sweep,
/// fabric-serve, request): --algo, --graph, --ns, --trials, --seed,
/// --semantics and --node-profile. argv[i] is the flag; taking one that
/// has a value advances i past it. kNotMine covers another flag and a
/// value flag with no value left - the caller's "unknown or incomplete
/// argument" path. kBad is a malformed value, already named on stderr.
FlagParse parse_scenario_flag(int argc, char** argv, int& i, core::ScenarioSpec& spec) {
  const std::string arg = argv[i];
  if (arg == "--node-profile") {
    spec.node_profile = true;
    return FlagParse::kTaken;
  }
  if (i + 1 >= argc) return FlagParse::kNotMine;
  const std::string value = argv[i + 1];
  bool ok = true;
  if (arg == "--algo") {
    spec.algorithm = value;
  } else if (arg == "--graph") {
    spec.family = graph::parse_family_spec(value);
  } else if (arg == "--ns") {
    ok = size_list_flag(value, "--ns", spec.ns);
  } else if (arg == "--trials") {
    ok = size_flag(value, "--trials", spec.schedule.max_trials);
  } else if (arg == "--seed") {
    ok = u64_flag(value, "--seed", spec.seed);
  } else if (arg == "--semantics") {
    spec.semantics = parse_semantics(value);
  } else {
    return FlagParse::kNotMine;
  }
  ++i;
  return ok ? FlagParse::kTaken : FlagParse::kBad;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  file << text << "\n";
  return true;
}

std::string read_text_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void print_points(const std::vector<core::ScenarioPoint>& points, bool adaptive) {
  std::cout << "      n   trials   avg_mean     avg_sd      ci_hw   max_mean  max_worst   "
               "p50  p90  p99   node_mean_max  edge_avg_mean\n";
  for (const auto& sp : points) {
    const auto& p = sp.point;
    std::printf("%7zu  %7zu  %9.4f  %9.4f  %9.4f  %9.2f  %9zu  %4zu %4zu %4zu   %13.4f  %13.4f\n",
                p.n, p.trials, p.avg_mean, p.avg_sd, sp.half_width, p.max_mean, p.max_worst,
                p.radius.quantiles.size() > 0 ? p.radius.quantiles[0] : 0,
                p.radius.quantiles.size() > 1 ? p.radius.quantiles[1] : 0,
                p.radius.quantiles.size() > 2 ? p.radius.quantiles[2] : 0, p.node_mean_max,
                p.edge_avg_mean);
  }
  if (adaptive) {
    for (const auto& sp : points) {
      std::cout << "  n=" << sp.point.n << ": "
                << (sp.converged ? "converged after " : "hit the trial cap at ")
                << sp.point.trials << " trials (half-width " << sp.half_width << ")\n";
    }
  }
}

// ---------------------------------------------------------------- list ----

int run_list_command() {
  const auto& families = graph::FamilyRegistry::global();
  std::cout << "graph families (--graph NAME or NAME:param=value,...):\n";
  for (const std::string& name : families.names()) {
    const graph::GraphFamily& family = families.at(name);
    std::printf("  %-16s %s%s\n", family.name.c_str(), family.randomised ? "[random] " : "",
                family.description.c_str());
    for (const auto& param : family.params) {
      std::printf("  %-16s   param %s=%g: %s\n", "", param.name.c_str(), param.default_value,
                  param.description.c_str());
    }
  }

  const auto& algorithms = algo::AlgorithmRegistry::global();
  std::cout << "\nview algorithms (--algo; single runs and sweeps):\n";
  for (const std::string& name : algorithms.names(algo::AlgorithmKind::kView)) {
    const algo::AlgorithmInfo& info = algorithms.at(name);
    const algo::ViewCapabilities caps = algo::AlgorithmRegistry::probe(info, 256);
    std::printf("  %-16s %s (%s; batched mode: %s%s)\n", info.name.c_str(),
                info.description.c_str(), info.constraint.c_str(),
                caps.ids_only_view ? "sequential/ids-only" : "lockstep",
                caps.min_radius > 0
                    ? (", skips radii < " + std::to_string(caps.min_radius) + " at n=256").c_str()
                    : "");
  }
  std::cout << "\nmessage algorithms (--algo; single runs and message-engine sweeps):\n";
  for (const std::string& name : algorithms.names(algo::AlgorithmKind::kMessage)) {
    const algo::AlgorithmInfo& info = algorithms.at(name);
    std::printf("  %-16s %s (%s)\n", info.name.c_str(), info.description.c_str(),
                info.constraint.c_str());
  }
  return 0;
}

// ----------------------------------------------------------------- run ----

struct RunOptions {
  std::string algo = "largest-id";
  std::string graph = "cycle";
  std::size_t n = 256;
  std::uint64_t seed = 1;
  std::string semantics = "induced";
  std::string csv_path;
};

void usage() {
  std::cout << "usage: avglocal_cli [--algo A] [--graph G] [--n N] [--seed S]\n"
               "                    [--semantics induced|flooding] [--csv FILE]\n"
               "       avglocal_cli list          (enumerate graph families and algorithms)\n"
               "       avglocal_cli sweep ...     (batched/adaptive/sharded sweeps; --help)\n"
               "       avglocal_cli merge ...     (recombine shard artefacts; --help)\n"
               "       avglocal_cli serve ...     (resident sweep daemon + result cache; --help)\n"
               "       avglocal_cli request ...   (client for a running daemon; --help)\n"
               "       avglocal_cli fabric-serve ...  (distributed sweep coordinator; --help)\n"
               "       avglocal_cli fabric-worker ... (worker for a coordinator; --help)\n"
               "  names resolve through the scenario registries; `list` prints them.\n";
}

std::optional<RunOptions> parse_run(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") return std::nullopt;
    std::optional<std::string> value;
    if (arg == "--algo" && (value = next())) {
      options.algo = *value;
    } else if (arg == "--graph" && (value = next())) {
      options.graph = *value;
    } else if (arg == "--n" && (value = next())) {
      if (!size_flag(*value, "--n", options.n)) return std::nullopt;
    } else if (arg == "--seed" && (value = next())) {
      if (!u64_flag(*value, "--seed", options.seed)) return std::nullopt;
    } else if (arg == "--semantics" && (value = next())) {
      options.semantics = *value;
    } else if (arg == "--csv" && (value = next())) {
      options.csv_path = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return options;
}

int run_single_impl(const RunOptions& options) {
  const graph::FamilySpec family = graph::parse_family_spec(options.graph);
  const auto& families = graph::FamilyRegistry::global();
  const algo::AlgorithmInfo& info = algo::AlgorithmRegistry::global().at(options.algo);

  support::Xoshiro256 rng(options.seed);
  const graph::Graph g = families.build(family, options.n, rng);
  const std::size_t n = g.vertex_count();
  const graph::IdAssignment ids = graph::IdAssignment::random(n, rng);

  local::RunResult run;
  if (info.kind == algo::AlgorithmKind::kView) {
    local::ViewEngineOptions view_options;
    view_options.semantics = parse_semantics(options.semantics);
    run = local::run_views(g, ids, info.view(n), view_options);
  } else {
    local::EngineOptions engine_options;
    engine_options.knowledge = info.knowledge;
    engine_options.max_rounds = 1'000'000;
    run = local::run_messages(g, ids, info.messages(n), engine_options);
  }
  const std::string validity =
      info.validate ? (info.validate(g, ids, run.outputs) ? "valid" : "INVALID") : "n/a";

  const core::Measurement m = core::measure(run);
  const core::EdgeMeasurement em = core::measure_edges(g, run.radii);
  std::cout << options.algo << " on " << options.graph << " n=" << n
            << " seed=" << options.seed << " (" << options.semantics << ")\n"
            << "  outputs       : " << validity << "\n"
            << "  max radius    : " << m.max_radius << "\n"
            << "  avg radius    : " << m.avg_radius << "\n"
            << "  sum radius    : " << m.sum_radius << "\n"
            << "  gap max/avg   : " << core::measure_gap(m) << "\n"
            << "  edge avg time : " << em.avg_time << " over " << em.edges << " edges\n";
  if (run.messages > 0) {
    std::cout << "  messages/words: " << run.messages << " / " << run.words << "\n";
  }

  if (!options.csv_path.empty()) {
    std::ofstream file(options.csv_path);
    if (!file) {
      std::cerr << "cannot open " << options.csv_path << "\n";
      return 1;
    }
    support::CsvWriter csv(file);
    csv.write_row({"vertex", "id", "radius", "output"});
    for (std::size_t v = 0; v < n; ++v) {
      csv.write_row({std::to_string(v),
                     std::to_string(ids.id_of(static_cast<graph::Vertex>(v))),
                     std::to_string(run.radii[v]), std::to_string(run.outputs[v])});
    }
    std::cout << "  per-vertex CSV written to " << options.csv_path << "\n";
  }
  return 0;
}

// --------------------------------------------------------------- sweep ----

struct SweepCliOptions {
  core::ScenarioSpec spec;
  std::size_t threads = 0;
  std::size_t batch = 0;
  std::optional<std::pair<std::size_t, std::size_t>> shard;  ///< (index, count)
  std::string out_path;   ///< shard artefact destination (sweep --shard)
  std::string json_path;  ///< full-report destination
};

void sweep_usage() {
  std::cout
      << "usage: avglocal_cli sweep [--algo A] [--graph G[:param=v,...]] [--ns N1,N2,...]\n"
         "                          [--trials T] [--seed S] [--semantics induced|flooding]\n"
         "                          [--threads W] [--batch B] [--node-profile] [--json FILE]\n"
         "                          [--target-hw H [--min-trials M] [--adaptive-batch B]\n"
         "                          [--z Z]] [--shard I/K --out FILE]\n"
         "       avglocal_cli merge [--json FILE] SHARD.json...\n"
         "  `list` enumerates the algorithm and graph-family names. View and message\n"
         "  algorithms both sweep; the registry picks the engine. --threads parallelises\n"
         "  both: view sweeps share vertices across workers, message sweeps run one\n"
         "  engine per worker over disjoint trial ranges - results are byte-identical\n"
         "  for every thread count (message sweeps ignore --semantics).\n"
         "  --trials is the trial count - or, with --target-hw, the adaptive cap: trials\n"
         "  grow in batches until the avg-mean confidence half-width closes below H.\n"
         "  --shard I/K runs trial range I of K and writes a mergeable artefact; merge\n"
         "  recombines artefacts bit-identically to the monolithic sweep. For a local\n"
         "  multi-process sweep, run tools/fabric_launch.sh --workers \"local local ...\".\n";
}

std::optional<SweepCliOptions> parse_sweep(int argc, char** argv) {
  SweepCliOptions options;
  for (int i = 2; i < argc; ++i) {
    const FlagParse scenario = parse_scenario_flag(argc, argv, i, options.spec);
    if (scenario == FlagParse::kBad) return std::nullopt;
    if (scenario == FlagParse::kTaken) continue;
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") return std::nullopt;
    if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return std::nullopt;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch)) return std::nullopt;
    } else if (arg == "--target-hw" && (value = next())) {
      if (!f64_flag(*value, "--target-hw", options.spec.schedule.target_half_width)) {
        return std::nullopt;
      }
    } else if (arg == "--min-trials" && (value = next())) {
      if (!size_flag(*value, "--min-trials", options.spec.schedule.min_trials)) {
        return std::nullopt;
      }
    } else if (arg == "--adaptive-batch" && (value = next())) {
      if (!size_flag(*value, "--adaptive-batch", options.spec.schedule.batch)) {
        return std::nullopt;
      }
    } else if (arg == "--z" && (value = next())) {
      if (!f64_flag(*value, "--z", options.spec.schedule.z)) return std::nullopt;
    } else if (arg == "--json" && (value = next())) {
      options.json_path = *value;
    } else if (arg == "--shard" && (value = next())) {
      const auto slash = value->find('/');
      std::size_t index = 0;
      std::size_t count = 0;
      if (slash == std::string::npos || !parse_u64(value->substr(0, slash)) ||
          !parse_u64(value->substr(slash + 1))) {
        std::cerr << "invalid value '" << *value << "' for --shard (expects I/K)\n";
        return std::nullopt;
      }
      index = static_cast<std::size_t>(*parse_u64(value->substr(0, slash)));
      count = static_cast<std::size_t>(*parse_u64(value->substr(slash + 1)));
      options.shard = {{index, count}};
    } else if (arg == "--out" && (value = next())) {
      options.out_path = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return std::nullopt;
    }
  }
  return options;
}

int run_sweep_command_impl(int argc, char** argv) {
  const auto parsed = parse_sweep(argc, argv);
  if (!parsed) {
    sweep_usage();
    return 2;
  }
  const SweepCliOptions& options = *parsed;
  // Validate the whole workload - family, parameters, algorithm, schedule -
  // before any sweep work starts or any artefact file is opened.
  const core::ResolvedScenario resolved = core::resolve_scenario(options.spec);

  if (options.shard) {
    const auto [index, count] = *options.shard;
    if (options.out_path.empty()) {
      std::cerr << "--shard needs --out FILE for the artefact\n";
      return 2;
    }
    if (resolved.spec.schedule.adaptive()) {
      std::cerr << "adaptive schedules cannot be sharded: the trial count is decided by the\n"
                << "monolithic driver; drop --target-hw or run `sweep` without --shard\n";
      return 2;
    }
    core::BatchedSweepOptions sweep = resolved.sweep_options();
    sweep.threads = options.threads;
    sweep.batch_size = options.batch;
    const auto plan =
        core::plan_shards(resolved.spec.ns.size(), sweep.trials, count);
    if (index >= plan.size()) {
      std::cerr << "shard " << index << " is empty: only " << plan.size()
                << " non-empty shards in this plan\n";
      return 2;
    }
    core::ShardDocument doc;
    doc.meta = core::scenario_plan_meta(resolved);
    doc.shard = plan[index];
    doc.points = core::run_scenario_shard(resolved, sweep, doc.shard);
    if (!write_text_file(options.out_path, core::shard_to_json(doc))) return 1;
    std::cout << "shard " << index << "/" << count << " (trials [" << doc.shard.trial_begin
              << ", " << doc.shard.trial_end << ")) written to " << options.out_path << "\n";
    return 0;
  }

  core::ScenarioExecution execution;
  execution.threads = options.threads;
  execution.batch_size = options.batch;
  const core::ScenarioResult result = core::run_scenario(resolved.spec, execution);
  print_points(result.points, result.spec.schedule.adaptive());
  if (!options.json_path.empty()) {
    if (!write_text_file(options.json_path, core::sweep_report_json(result.spec, result.points))) {
      return 1;
    }
    std::cout << "sweep report written to " << options.json_path << "\n";
  }
  return 0;
}

// --------------------------------------------------------------- merge ----

/// Rebuilds the report spec from a shard artefact: the embedded scenario
/// block when present, else a best-effort spec from the plan header (for
/// artefacts produced below the scenario layer).
core::ScenarioSpec spec_from_meta(const core::SweepPlanMeta& meta) {
  if (!meta.scenario.empty()) {
    core::ScenarioSpec spec = core::scenario_from_json(meta.scenario);
    // Version-2 scenario blocks predate the engine field; the meta default
    // ("view" - v2 artefacts had no other engine) keeps the re-emitted
    // report's scenario block self-describing.
    if (spec.engine.empty()) spec.engine = meta.engine;
    return spec;
  }
  core::ScenarioSpec spec;
  spec.family = meta.graph.empty() ? graph::FamilySpec{"unknown", {}}
                                   : graph::parse_family_spec(meta.graph);
  spec.algorithm = meta.algorithm;
  spec.engine = meta.engine;
  spec.ns = meta.ns;
  spec.semantics = meta.semantics;
  spec.seed = meta.seed;
  spec.schedule.max_trials = meta.trials;
  spec.quantile_probs = meta.quantile_probs;
  spec.node_profile = meta.node_profile;
  return spec;
}

int run_merge_command_impl(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> artefacts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      sweep_usage();
      return 2;
    }
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown argument: " << arg << "\n";
      sweep_usage();
      return 2;
    } else {
      artefacts.push_back(arg);
    }
  }
  if (artefacts.empty()) {
    std::cerr << "merge needs at least one shard artefact\n";
    sweep_usage();
    return 2;
  }

  std::vector<core::ShardDocument> docs;
  docs.reserve(artefacts.size());
  for (const std::string& path : artefacts) {
    docs.push_back(core::parse_shard_json(read_text_file(path)));
  }
  const core::SweepPlanMeta meta = docs.front().meta;
  const core::ScenarioResult result =
      core::finalize_scenario(spec_from_meta(meta), core::merge_shards(std::move(docs)));
  std::cout << "merged " << artefacts.size() << " shard(s): " << meta.algorithm << " on "
            << meta.graph << ", seed " << meta.seed << ", " << meta.trials << " trials\n";
  print_points(result.points, /*adaptive=*/false);
  if (!json_path.empty()) {
    if (!write_text_file(json_path, core::sweep_report_json(result.spec, result.points))) return 1;
    std::cout << "merged report written to " << json_path << "\n";
  }
  return 0;
}

// ------------------------------------------------------- serve / request ----

void serve_usage() {
  std::cout
      << "usage: avglocal_cli serve --socket PATH [--threads W] [--batch B]\n"
         "                          [--max-clients C]\n"
         "       avglocal_cli request --socket PATH [--op sweep|ping|stats|shutdown]\n"
         "                            [--connect-timeout-ms MS] ...sweep flags... [--json FILE]\n"
         "  serve keeps sweep results resident behind a Unix-domain socket with a\n"
         "  content-addressed result cache: a repeated request is served from cache\n"
         "  with zero recomputation, a request for more trials of a cached workload\n"
         "  computes only the missing trial range, and every report is byte-identical\n"
         "  to a one-shot `sweep --json` run. Fixed trial schedules only (--target-hw\n"
         "  requests are rejected). SIGTERM/SIGINT shut the daemon down cleanly.\n"
         "  request sends one op and prints the response; for sweeps, --json FILE\n"
         "  saves the returned report (cmp-identical to the monolithic file).\n";
}

/// The serve daemon's or fabric coordinator's connection host, under the
/// signal handler's hand. request_stop() is the only call the handler
/// makes - an atomic store plus shutdown(2), both async-signal-safe.
support::ConnectionHost* g_host = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_host != nullptr) g_host->request_stop();
}

/// No SA_RESTART: the blocked accept() must return (EINTR) so the accept
/// loop observes the stop flag the handler just set.
void install_stop_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_stop_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

int run_serve_command_impl(int argc, char** argv) {
  core::ServeOptions options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      serve_usage();
      return 2;
    }
    if (arg == "--socket" && (value = next())) {
      options.socket_path = *value;
    } else if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return 2;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch_size)) return 2;
    } else if (arg == "--max-clients" && (value = next())) {
      if (!size_flag(*value, "--max-clients", options.max_clients)) return 2;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      serve_usage();
      return 2;
    }
  }
  if (options.socket_path.empty()) {
    std::cerr << "serve needs --socket PATH\n";
    serve_usage();
    return 2;
  }
  if (options.max_clients < 1) {
    std::cerr << "--max-clients must be at least 1\n";
    return 2;
  }

  core::Server server(options);
  server.start();
  g_host = &server.host();
  install_stop_handlers();

  std::cout << "serving on " << options.socket_path << "\n" << std::flush;
  server.run();
  g_host = nullptr;
  const core::ResultCacheStats stats = server.cache().stats();
  std::cout << "server stopped: " << stats.requests << " request(s), " << stats.full_hits
            << " full hit(s), " << stats.extensions << " extension(s), "
            << stats.trials_computed << " trial(s) computed\n";
  return 0;
}

// -------------------------------------------------------------- fabric ----

void fabric_usage() {
  std::cout
      << "usage: avglocal_cli fabric-serve --listen ENDPOINT ...sweep flags...\n"
         "                                 [--unit-trials U] [--straggler-ms MS]\n"
         "                                 [--max-workers W] [--json FILE]\n"
         "                                 [--endpoint-file FILE]\n"
         "       avglocal_cli fabric-worker --connect ENDPOINT [--threads W] [--batch B]\n"
         "                                  [--name NAME] [--connect-timeout-ms MS]\n"
         "  ENDPOINT is unix:PATH (or a bare path) or tcp:HOST:PORT (or HOST:PORT);\n"
         "  tcp port 0 binds an ephemeral port, reported on stdout and via\n"
         "  --endpoint-file. The coordinator decomposes the sweep into (point,\n"
         "  trial-range) units of --unit-trials trials (0 = trials/8) that idle\n"
         "  workers pull; a unit unfinished --straggler-ms after its grant is\n"
         "  re-dispatched, first result per unit wins, duplicates are discarded.\n"
         "  The merged report is byte-identical to `sweep --json` for any worker\n"
         "  count, steal order or mid-run worker death. Fixed schedules only.\n"
         "  SIGTERM/SIGINT drain the fabric: workers exit cleanly, the\n"
         "  coordinator reports `stopped before completion` and exits 1.\n";
}

int run_fabric_serve_command_impl(int argc, char** argv) {
  core::ScenarioSpec spec;
  core::FabricOptions fabric;
  std::string listen;
  std::string json_path;
  std::string endpoint_file;
  for (int i = 2; i < argc; ++i) {
    const FlagParse scenario = parse_scenario_flag(argc, argv, i, spec);
    if (scenario == FlagParse::kBad) return 2;
    if (scenario == FlagParse::kTaken) continue;
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      fabric_usage();
      return 2;
    }
    if (arg == "--listen" && (value = next())) {
      listen = *value;
    } else if (arg == "--unit-trials" && (value = next())) {
      if (!size_flag(*value, "--unit-trials", fabric.unit_trials)) return 2;
    } else if (arg == "--straggler-ms" && (value = next())) {
      if (!u64_flag(*value, "--straggler-ms", fabric.straggler_ms)) return 2;
    } else if (arg == "--max-workers" && (value = next())) {
      if (!size_flag(*value, "--max-workers", fabric.max_workers)) return 2;
    } else if (arg == "--json" && (value = next())) {
      json_path = *value;
    } else if (arg == "--endpoint-file" && (value = next())) {
      endpoint_file = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      fabric_usage();
      return 2;
    }
  }
  if (listen.empty()) {
    std::cerr << "fabric-serve needs --listen ENDPOINT\n";
    fabric_usage();
    return 2;
  }
  if (fabric.max_workers < 1) {
    std::cerr << "--max-workers must be at least 1\n";
    return 2;
  }
  fabric.endpoint = support::parse_endpoint(listen);

  core::FabricCoordinator coordinator(core::resolve_scenario(spec), fabric);
  coordinator.start();
  g_host = &coordinator.host();
  install_stop_handlers();

  // The resolved endpoint (TCP port 0 becomes the real port) goes to
  // stdout and, for launcher scripts, to --endpoint-file.
  const std::string endpoint = coordinator.endpoint().to_string();
  if (!endpoint_file.empty() && !write_text_file(endpoint_file, endpoint)) return 1;
  std::cout << "fabric serving on " << endpoint << "\n" << std::flush;

  coordinator.run();
  g_host = nullptr;
  const core::FabricStats stats = coordinator.stats();
  std::cout << "fabric: " << stats.workers_seen << " worker(s), " << stats.units_granted
            << " grant(s), " << stats.redispatches << " re-dispatch(es), "
            << stats.duplicates_discarded << " duplicate(s) discarded\n";
  if (!coordinator.complete()) {
    std::cerr << "fabric stopped before completion\n";
    return 1;
  }
  // Unit-id order per point is canonical trial order, so the merged
  // partials - and the report finalized from them - match the monolithic
  // sweep byte for byte.
  const std::vector<core::PointAccumulator> merged = core::merge_unit_results(
      coordinator.work_units(), coordinator.take_unit_results(), coordinator.spec().ns.size());
  const core::ScenarioResult result = core::finalize_scenario(coordinator.spec(), merged);
  print_points(result.points, /*adaptive=*/false);
  if (!json_path.empty()) {
    // write_text_file appends the same trailing newline the sweep path
    // does, so the saved file is cmp-identical to `sweep --json`'s.
    if (!write_text_file(json_path, core::sweep_report_json(result.spec, result.points))) {
      return 1;
    }
    std::cout << "sweep report written to " << json_path << "\n";
  }
  return 0;
}

int run_fabric_worker_command_impl(int argc, char** argv) {
  core::FabricWorkerOptions options;
  std::string connect;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      fabric_usage();
      return 2;
    }
    if (arg == "--connect" && (value = next())) {
      connect = *value;
    } else if (arg == "--threads" && (value = next())) {
      if (!size_flag(*value, "--threads", options.threads)) return 2;
    } else if (arg == "--batch" && (value = next())) {
      if (!size_flag(*value, "--batch", options.batch)) return 2;
    } else if (arg == "--name" && (value = next())) {
      options.name = *value;
    } else if (arg == "--connect-timeout-ms" && (value = next())) {
      std::uint64_t ms = 0;
      if (!u64_flag(*value, "--connect-timeout-ms", ms)) return 2;
      options.connect_timeout_ms = static_cast<long>(ms);
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      fabric_usage();
      return 2;
    }
  }
  if (connect.empty()) {
    std::cerr << "fabric-worker needs --connect ENDPOINT\n";
    fabric_usage();
    return 2;
  }
  options.endpoint = support::parse_endpoint(connect);

  // Test-only failure injection for the straggler re-dispatch path
  // (exercised by tests/test_cli_process.cpp): with
  // AVGLOCAL_TEST_FAIL_MARKER set, this worker's first granted unit drops
  // a marker file and dies mid-unit - after the grant, before any
  // artefact - which is exactly the straggler the coordinator must
  // re-dispatch. MODE=kill dies by SIGKILL, anything else by exit 33;
  // MODE=always dies on every grant (the worker is then useless and the
  // others must carry the sweep; if none can, the launcher gives up).
  if (const char* marker = std::getenv("AVGLOCAL_TEST_FAIL_MARKER")) {
    const std::string marker_path = std::string(marker) + ".worker-" + options.name;
    const char* mode_env = std::getenv("AVGLOCAL_TEST_FAIL_MODE");
    const std::string mode = mode_env ? mode_env : "";
    options.on_grant = [marker_path, mode](const core::WorkUnit&) {
      bool fail = mode == "always";
      if (!fail) {
        struct stat info;
        if (::stat(marker_path.c_str(), &info) != 0) {
          std::ofstream(marker_path).put('x');
          fail = true;
        }
      }
      if (!fail) return;
      if (mode == "kill") ::kill(::getpid(), SIGKILL);
      std::_Exit(33);
    };
  }

  const core::FabricWorkerOutcome outcome = core::run_fabric_worker(options);
  std::cout << "worker " << options.name << ": " << outcome.units << " unit(s), "
            << outcome.trials << " trial(s)"
            << (outcome.drained ? " (drained by coordinator)" : "") << "\n";
  return 0;
}

int run_request_command_impl(int argc, char** argv) {
  std::string socket_path;
  std::string op = "sweep";
  std::string json_path;
  std::uint64_t connect_timeout_ms = 5000;
  core::ScenarioSpec spec;
  for (int i = 2; i < argc; ++i) {
    const FlagParse scenario = parse_scenario_flag(argc, argv, i, spec);
    if (scenario == FlagParse::kBad) return 2;
    if (scenario == FlagParse::kTaken) continue;
    const std::string arg = argv[i];
    const auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    std::optional<std::string> value;
    if (arg == "--help" || arg == "-h") {
      serve_usage();
      return 2;
    }
    if (arg == "--socket" && (value = next())) {
      socket_path = *value;
    } else if (arg == "--connect-timeout-ms" && (value = next())) {
      if (!u64_flag(*value, "--connect-timeout-ms", connect_timeout_ms)) return 2;
    } else if (arg == "--op" && (value = next())) {
      op = *value;
    } else if (arg == "--json" && (value = next())) {
      json_path = *value;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      serve_usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::cerr << "request needs --socket PATH\n";
    serve_usage();
    return 2;
  }
  if (op != "sweep" && op != "ping" && op != "stats" && op != "shutdown") {
    std::cerr << "unknown op '" << op << "' (sweep|ping|stats|shutdown)\n";
    return 2;
  }

  support::JsonWriter json;
  json.begin_object();
  json.key("op").value(op);
  if (op == "sweep") {
    json.key("scenario");
    core::write_scenario_json(json, spec);
  }
  json.end_object();

  // A request that raced its daemon's startup used to need a caller-side
  // poll loop; connect_with_retry rides out the ENOENT / ECONNREFUSED
  // window with bounded backoff instead, and throws (-> exit 1) only once
  // --connect-timeout-ms has elapsed with nothing listening.
  support::Stream stream = support::Stream::connect_with_retry(
      support::parse_endpoint(socket_path), static_cast<long>(connect_timeout_ms));
  if (!stream.write_line(json.str())) {
    std::cerr << "cannot send request to " << socket_path << "\n";
    return 1;
  }
  std::string line;
  if (!stream.read_line(line)) {
    std::cerr << "daemon closed the connection without a response\n";
    return 1;
  }
  const support::JsonValue response = support::parse_json(line);
  if (!response.at("ok").as_bool()) {
    std::cerr << "error: " << response.at("error").as_string() << "\n";
    return 1;
  }
  if (op != "sweep") {
    std::cout << line << "\n";
    return 0;
  }
  const std::string& report = response.at("report").as_string();
  std::cout << "key " << response.at("key").as_string() << " "
            << (response.at("warm").as_bool() ? "warm (served from cache)" : "computed") << ", "
            << response.at("trials_computed").as_u64() << " trial(s) computed\n";
  if (!json_path.empty()) {
    // write_text_file appends the same trailing newline the sweep path
    // does, so the saved file is cmp-identical to `sweep --json`'s.
    if (!write_text_file(json_path, report)) return 1;
    std::cout << "sweep report written to " << json_path << "\n";
  } else {
    std::cout << report << "\n";
  }
  return 0;
}

// ---------------------------------------------------------------- main ----

/// Sweep plans assemble many moving parts (size lists, graph families,
/// shard artefacts), so configuration errors surface as exceptions from
/// deep inside the library; report them as errors, not aborts.
int run_guarded(int (*command)(int, char**), int argc, char** argv) {
  try {
    return command(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

int run_single_guarded(int argc, char** argv) {
  const auto parsed = parse_run(argc, argv);
  if (!parsed) {
    usage();
    return 2;
  }
  try {
    return run_single_impl(*parsed);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "list") == 0) return run_list_command();
  if (argc > 1 && std::strcmp(argv[1], "sweep") == 0) {
    return run_guarded(run_sweep_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) {
    return run_guarded(run_merge_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return run_guarded(run_serve_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "request") == 0) {
    return run_guarded(run_request_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fabric-serve") == 0) {
    return run_guarded(run_fabric_serve_command_impl, argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fabric-worker") == 0) {
    return run_guarded(run_fabric_worker_command_impl, argc, argv);
  }
  return run_single_guarded(argc, argv);
}
