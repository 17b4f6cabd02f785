// perfbench_harness: the benchmark's traced run. It composes one workload
// from avglocal's public calls and records a span around each call, plus
// counters taken where the work happens, so the benchmark can attribute
// end-to-end time to layers.
//
//   perfbench_harness --isa                  print support::simd::active_isa()
//   perfbench_harness PLAN.json OUT.json     run the plan, write spans+counters
//
// The same source also builds perfbench_allocs (PERFBENCH_COUNT_ALLOCS),
// which installs the library's alloc hook and runs only the view and
// message probes, for their allocation counts. The hook ticks one shared
// atomic per allocation, which would slow every pooled call of the main
// harness, so the main harness runs hook-free and starts perfbench_allocs
// as a child for those counters.
//
// The plan (written by perfbench/run.py) names the CLI binary, a private
// work directory, the sweep seed, the worker-thread count and the
// workload's specs. The harness then runs, in order:
//   * cli       one-shot `avglocal_cli sweep --json` per spec: the byte
//               references every report below is compared with;
//   * reps      five repetitions ("rep" spans) of the whole workload as a
//               CLI process per spec, as each spec composed the way
//               run_scenario does (resolve, graph build, driver prepare /
//               run_trials / finalize, report; one span per call), and as
//               untraced run_scenario. cli.unattributed_ms and
//               trace.overhead_pct are medians of in-repetition differences;
//   * probes    ids, view engine (serial, BatchPhaseStats + alloc hook),
//               message engine (Trace with alloc samples), pool efficiency,
//               result cache + serve daemon over a real socket, fabric
//               coordinator in-process with real worker processes.
// Spans stay in memory and are written once at the end. Every report is
// byte-compared with its CLI reference; mismatches are counted as failures
// and make the harness exit 1.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/fabric.hpp"
#include "core/result_cache.hpp"
#include "core/scenario.hpp"
#include "core/serve.hpp"
#include "core/sweep_backend.hpp"
#include "core/sweep_driver.hpp"
#include "graph/family_registry.hpp"
#include "local/engine.hpp"
#include "local/trace.hpp"
#include "local/view_engine.hpp"
#include "support/alloc_hook.hpp"
#include "support/json_reader.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/socket.hpp"
#include "support/thread_pool.hpp"

#ifdef PERFBENCH_COUNT_ALLOCS
AVGLOCAL_DEFINE_ALLOC_HOOK();
#endif

namespace {

#ifdef PERFBENCH_COUNT_ALLOCS
constexpr bool kCountAllocs = true;
#else
constexpr bool kCountAllocs = false;
#endif

/// Repetitions of the workload's composition; per-layer times are medians
/// over them.
constexpr int kReps = 5;

using namespace avglocal;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// ------------------------------------------------------------- tracing ----

/// In-memory span recorder. Spans nest: a span opened while another is
/// open becomes its child. Main thread only.
class Tracer {
 public:
  struct Span {
    std::size_t id = 0;
    std::size_t parent = 0;  ///< 0 = no parent (ids start at 1)
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::size_t open(std::string name) {
    Span span;
    span.id = spans_.size() + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.name = std::move(name);
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::size_t id) {
    spans_[id - 1].end_ns = now_ns();
    if (stack_.empty() || stack_.back() != id) throw std::logic_error("span closed out of order");
    stack_.pop_back();
  }

  double seconds(std::size_t id) const {
    const Span& s = spans_[id - 1];
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

Tracer g_tracer;

/// RAII span on g_tracer.
class Scope {
 public:
  explicit Scope(std::string name) : id_(g_tracer.open(std::move(name))) {}
  ~Scope() {
    if (!closed_) g_tracer.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes early and returns the span's duration in seconds.
  double close() {
    g_tracer.close(id_);
    closed_ = true;
    return g_tracer.seconds(id_);
  }

 private:
  std::size_t id_;
  bool closed_ = false;
};

// ---------------------------------------------------------- checks ----

std::uint64_t g_attempted = 0;
std::vector<std::string> g_failures;

void check(bool ok, const std::string& what) {
  ++g_attempted;
  if (!ok) g_failures.push_back(what);
}

std::map<std::string, double> g_counters;

// ------------------------------------------------------------- plan ----

struct SpecPlan {
  std::string algo;
  std::string graph;
  std::vector<std::size_t> ns;
  std::size_t trials = 0;

  std::string label() const {
    std::string s = algo + "@" + graph + ":";
    for (std::size_t i = 0; i < ns.size(); ++i) s += (i ? "," : "") + std::to_string(ns[i]);
    return s;
  }
};

struct Plan {
  std::string path;  ///< where the plan was read from
  std::string cli;
  std::string alloc_harness;  ///< the perfbench_allocs binary
  std::string workdir;
  std::uint64_t seed = 0;
  std::size_t threads = 2;
  std::size_t extend_trials = 16;
  std::size_t fabric_workers = 3;
  std::vector<SpecPlan> specs;  ///< the workload's own sweeps; [0] is its lead spec
  SpecPlan view_probe;          ///< a view (cv3) spec for the view-engine probe
  SpecPlan msg_probe;           ///< a message spec for the message-engine probe
  SpecPlan fabric;              ///< the spec the fabric probe distributes
};

SpecPlan spec_plan_from(const support::JsonValue& v) {
  SpecPlan p;
  p.algo = v.at("algo").as_string();
  p.graph = v.at("graph").as_string();
  const auto& ns = v.at("ns");
  for (std::size_t i = 0; i < ns.size(); ++i) p.ns.push_back(ns[i].as_u64());
  p.trials = v.at("trials").as_u64();
  return p;
}

Plan read_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::stringstream text;
  text << in.rdbuf();
  const support::JsonValue v = support::parse_json(text.str());
  Plan plan;
  plan.path = path;
  plan.cli = v.at("cli").as_string();
  plan.alloc_harness = v.at("alloc_harness").as_string();
  plan.workdir = v.at("workdir").as_string();
  plan.seed = v.at("seed").as_u64();
  plan.threads = v.at("threads").as_u64();
  plan.extend_trials = v.at("extend_trials").as_u64();
  plan.fabric_workers = v.at("fabric_workers").as_u64();
  const auto& specs = v.at("specs");
  for (std::size_t i = 0; i < specs.size(); ++i) plan.specs.push_back(spec_plan_from(specs[i]));
  if (plan.specs.empty()) throw std::runtime_error("plan has no specs");
  plan.view_probe = spec_plan_from(v.at("view_probe"));
  plan.msg_probe = spec_plan_from(v.at("msg_probe"));
  plan.fabric = spec_plan_from(v.at("fabric"));
  return plan;
}

core::ScenarioSpec scenario_spec(const SpecPlan& p, std::uint64_t seed, std::size_t trials) {
  core::ScenarioSpec spec;
  spec.family = graph::parse_family_spec(p.graph);
  spec.algorithm = p.algo;
  spec.ns = p.ns;
  spec.seed = seed;
  spec.schedule.max_trials = trials;
  return spec;
}

// ------------------------------------------------------- processes ----

/// A child process that is killed and reaped if still running when the
/// handle goes away (error paths included).
class Child {
 public:
  explicit Child(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      wait();
    }
  }

  /// Waits for exit; returns the exit status (-1 when killed by a signal).
  int wait() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string join_ns(const std::vector<std::size_t>& ns) {
  std::string s;
  for (std::size_t i = 0; i < ns.size(); ++i) s += (i ? "," : "") + std::to_string(ns[i]);
  return s;
}

/// One-shot CLI sweep of `p` at `trials` trials; returns the report bytes
/// and stores the process wall time in `wall_s`.
std::string cli_sweep(const Plan& plan, const SpecPlan& p, std::size_t trials,
                      double& wall_s) {
  static int counter = 0;
  const std::string out = plan.workdir + "/cli-" + std::to_string(counter++) + ".json";
  Scope span("cli.sweep");
  Child child({plan.cli, "sweep", "--algo", p.algo, "--graph", p.graph, "--ns", join_ns(p.ns),
               "--trials", std::to_string(trials), "--seed", std::to_string(plan.seed),
               "--threads", std::to_string(plan.threads), "--json", out});
  const int status = child.wait();
  wall_s = span.close();
  check(status == 0, "cli sweep " + p.label() + " exited " + std::to_string(status));
  // The CLI terminates the report file with one newline.
  std::string report = read_file(out);
  if (!report.empty() && report.back() == '\n') report.pop_back();
  return report;
}

// --------------------------------------------------------- compose ----

/// Runs `p` the way run_scenario does, one span per public call, and
/// returns the report. `pool` may be null (serial). `count_bytes` adds the
/// graph and report sizes to the counters (once per spec, not per
/// repetition).
std::string compose(const Plan& plan, const SpecPlan& p, support::ThreadPool* pool,
                    bool count_bytes) {
  Scope whole("compose");
  core::ResolvedScenario resolved = [&] {
    Scope span("scenario.resolve");
    return core::resolve_scenario(scenario_spec(p, plan.seed, p.trials));
  }();
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  core::BatchedSweepOptions options = resolved.sweep_options();
  options.pool = pool;
  const core::SweepDriver driver(*backend, options, pool);

  std::vector<core::ScenarioPoint> points;
  for (std::size_t index = 0; index < resolved.spec.ns.size(); ++index) {
    const std::size_t n = resolved.spec.ns[index];
    graph::Graph g = [&] {
      Scope span("graph.build");
      return resolved.graphs(n);
    }();
    if (count_bytes) g_counters["graph.csr_bytes"] += static_cast<double>(g.memory_bytes());
    core::SweepDriver::Point prepared = [&] {
      Scope span("driver.prepare");
      return driver.prepare(g, index);
    }();
    core::PointAccumulator acc = [&] {
      Scope span("driver.run_trials");
      return driver.run_trials(prepared, 0, p.trials);
    }();
    Scope span("driver.finalize");
    core::ScenarioPoint point;
    point.point = core::finalize_point(acc, resolved.sweep_options(acc.trial_count()));
    point.half_width = resolved.spec.schedule.half_width(point.point.avg_sd, acc.trial_count());
    points.push_back(std::move(point));
  }
  Scope span("scenario.report");
  std::string report = core::sweep_report_json(resolved.spec, points);
  if (count_bytes) g_counters["scenario.report_bytes"] += static_cast<double>(report.size());
  return report;
}

// ---------------------------------------------------------- probes ----

void ids_probe(const Plan& plan, const SpecPlan& p) {
  std::vector<graph::IdAssignment> batch;
  for (std::size_t index = 0; index < p.ns.size(); ++index) {
    Scope span("ids.fill");
    core::fill_sweep_batch(batch, p.ns[index], support::derive_seed(plan.seed, index), 0,
                           p.trials);
    g_counters["ids.vertex_trials"] += static_cast<double>(p.ns[index] * p.trials);
  }
}

void view_probe(const Plan& plan) {
  const SpecPlan& p = plan.view_probe;
  const core::ResolvedScenario resolved =
      core::resolve_scenario(scenario_spec(p, plan.seed, p.trials));
  if (!resolved.algorithms) throw std::runtime_error("view probe spec is not a view algorithm");
  local::BatchPhaseStats phases;
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
  double vertex_trials = 0;
  std::vector<graph::IdAssignment> batch;
  for (std::size_t index = 0; index < resolved.spec.ns.size(); ++index) {
    const std::size_t n = resolved.spec.ns[index];
    const graph::Graph g = resolved.graphs(n);
    const local::ViewAlgorithmFactory factory = resolved.algorithms(n);
    core::fill_sweep_batch(batch, n, support::derive_seed(plan.seed, index), 0, p.trials);
    local::ViewEngineOptions options;
    options.semantics = resolved.spec.semantics;
    options.phase_stats = &phases;
    std::uint64_t radius_sum = 0;
    Scope span("view.run");
    const support::AllocCounts before = support::alloc_counts();
    local::run_views_batched(g, batch, factory, options,
                             [&](std::size_t, std::size_t, graph::Vertex, std::int64_t,
                                 std::size_t radius) { radius_sum += radius; });
    const support::AllocCounts after = support::alloc_counts();
    span.close();
    allocations += after.allocations - before.allocations;
    bytes += after.bytes - before.bytes;
    vertex_trials += static_cast<double>(n * p.trials);
    check(radius_sum > 0, "view probe produced no radii");
  }
  const double engine =
      phases.transpose_sec + phases.grow_sec + phases.gather_sec + phases.eval_sec;
  if (kCountAllocs) {
    g_counters["view.allocs_per_vertex_trial"] = static_cast<double>(allocations) / vertex_trials;
    g_counters["view.alloc_bytes_per_vertex_trial"] = static_cast<double>(bytes) / vertex_trials;
    return;
  }
  g_counters["view.transpose_s"] = phases.transpose_sec;
  g_counters["view.grow_s"] = phases.grow_sec;
  g_counters["view.gather_s"] = phases.gather_sec;
  g_counters["view.eval_s"] = phases.eval_sec;
  g_counters["view.eval_share"] = engine > 0 ? phases.eval_sec / engine : 0.0;
}

/// Message-engine Trace that samples the alloc counters at every round.
class RoundSampler final : public local::Trace {
 public:
  struct Sample {
    std::size_t round;
    support::AllocCounts counts;
  };
  void record(const local::RoundStats& stats) override {
    samples.push_back({stats.round, support::alloc_counts()});
  }
  std::vector<Sample> samples;
};

void msg_probe(const Plan& plan) {
  const SpecPlan& p = plan.msg_probe;
  const core::ResolvedScenario resolved =
      core::resolve_scenario(scenario_spec(p, plan.seed, p.trials));
  if (!resolved.messages) throw std::runtime_error("message probe spec is not a message algorithm");
  double rounds = 0;
  double node_rounds = 0;
  std::uint64_t worst_allocs = 0;
  std::vector<graph::IdAssignment> batch;
  for (std::size_t index = 0; index < resolved.spec.ns.size(); ++index) {
    const std::size_t n = resolved.spec.ns[index];
    const graph::Graph g = resolved.graphs(n);
    core::fill_sweep_batch(batch, n, support::derive_seed(plan.seed, index), 0, p.trials);
    RoundSampler sampler;
    sampler.samples.reserve(1 << 16);
    local::EngineOptions options;
    options.knowledge = resolved.message_engine.knowledge;
    options.max_rounds = resolved.message_engine.max_rounds;
    options.trace = &sampler;
    local::MessageBatchRunner runner(g, resolved.messages(n), options);
    std::uint64_t radius_sum = 0;
    {
      Scope span("msg.run");
      runner.run(batch, [&](std::size_t, graph::Vertex, std::int64_t, std::size_t radius) {
        radius_sum += radius;
      });
    }
    check(radius_sum > 0, "message probe produced no radii");
    // Round 0 is on_start; each trial restarts at round 0. As in
    // bench_regression's gate, the round-1 delta of every trial (per-trial
    // set-up) and the first three rounds of the first trial (arena growth)
    // are warm-up.
    std::size_t trial = 0;
    for (std::size_t i = 0; i < sampler.samples.size(); ++i) {
      const auto& s = sampler.samples[i];
      if (s.round == 0) {
        if (i > 0) ++trial;
        continue;
      }
      rounds += 1;
      node_rounds += static_cast<double>(n);
      const bool warm = s.round >= (trial == 0 ? 4u : 2u);
      if (warm && i > 0 && sampler.samples[i - 1].round + 1 == s.round) {
        worst_allocs = std::max(worst_allocs, s.counts.allocations -
                                                  sampler.samples[i - 1].counts.allocations);
      }
    }
  }
  if (kCountAllocs) {
    g_counters["msg.allocs_per_round_after_warmup"] = static_cast<double>(worst_allocs);
    return;
  }
  g_counters["msg.rounds"] = rounds;
  g_counters["msg.node_rounds"] = node_rounds;
}

void pool_probe(const Plan& plan, support::ThreadPool& pool) {
  const SpecPlan& p = plan.specs.front();
  const core::ResolvedScenario resolved =
      core::resolve_scenario(scenario_spec(p, plan.seed, p.trials));
  const std::unique_ptr<core::SweepBackend> backend = resolved.make_backend();
  const std::size_t index = resolved.spec.ns.size() - 1;
  const graph::Graph g = resolved.graphs(resolved.spec.ns[index]);
  auto run = [&](support::ThreadPool* use, const char* name) {
    core::BatchedSweepOptions options = resolved.sweep_options();
    options.pool = use;
    options.threads = 1;
    const core::SweepDriver driver(*backend, options, use);
    core::SweepDriver::Point prepared = driver.prepare(g, index);
    Scope span(name);
    const core::PointAccumulator acc = driver.run_trials(prepared, 0, p.trials);
    const double seconds = span.close();
    return std::make_pair(acc, seconds);
  };
  const auto serial = run(nullptr, "pool.serial");
  const auto parallel = run(&pool, "pool.parallel");
  check(serial.first == parallel.first, "pooled partials differ from serial partials");
  g_counters["pool.parallel_efficiency"] =
      serial.second / (parallel.second * static_cast<double>(plan.threads));
}

/// Synchronous newline-JSON client of the serve daemon.
struct Client {
  support::Stream stream;
  std::string request(const std::string& line) {
    std::string reply;
    if (!stream.write_line(line) || !stream.read_line(reply)) {
      throw std::runtime_error("serve connection dropped");
    }
    return reply;
  }
};

std::string sweep_request(const core::ScenarioSpec& spec) {
  return "{\"op\":\"sweep\",\"scenario\":" +
         core::scenario_to_json(core::resolve_scenario(spec).spec) + "}";
}

/// Nearest-rank p99, the rule perfbench/lib/measure.py uses.
double p99(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() * 99 + 99) / 100 - 1];
}

/// Result cache and serve daemon: cold, extension and warm requests of
/// every spec over a real socket, plus the in-process warm-hit cost alone
/// and beside a cold sweep.
void cache_probe(const Plan& plan, const std::map<std::string, std::string>& refs) {
  const std::string socket_path = plan.workdir + "/serve.sock";
  core::ServeOptions options;
  options.socket_path = socket_path;
  options.threads = plan.threads;
  core::Server server(options);
  server.start();
  std::thread accept_loop([&] { server.run(); });
  struct Stopper {
    core::Server& server;
    std::thread& thread;
    ~Stopper() {
      server.request_stop();
      if (thread.joinable()) thread.join();
    }
  } stopper{server, accept_loop};

  Client client{support::Stream::connect(socket_path)};
  auto report_of = [](const std::string& reply) {
    const support::JsonValue v = support::parse_json(reply);
    return v.at("ok").as_bool() ? v.at("report").as_string() : std::string("<error>");
  };

  // Open-loop reader: warm repeats of the lead spec at a fixed period,
  // while the remaining cold work runs. Only the generator's own lateness
  // is kept: send time minus the later of due time and the previous reply.
  std::atomic<bool> reader_stop{false};
  std::atomic<bool> reader_failed{false};
  std::vector<double> lateness_ms;
  std::uint64_t reader_requests = 0;
  std::thread reader;
  struct Joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~Joiner() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } joiner{reader_stop, reader};

  std::vector<double> warm_rt_us;
  std::string warm_line;
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    const SpecPlan& p = plan.specs[i];
    const std::size_t extended = p.trials + plan.extend_trials;
    const std::string cold_line = sweep_request(scenario_spec(p, plan.seed, p.trials));
    const std::string ext_line = sweep_request(scenario_spec(p, plan.seed, extended));
    {
      Scope span("serve.cold");
      check(report_of(client.request(cold_line)) == refs.at(p.label() + "/" +
                                                            std::to_string(p.trials)),
            "serve cold reply differs from the one-shot report: " + p.label());
    }
    {
      Scope span("serve.extend");
      check(report_of(client.request(ext_line)) == refs.at(p.label() + "/" +
                                                           std::to_string(extended)),
            "serve extension reply differs from the one-shot report: " + p.label());
    }
    {
      Scope span("serve.warm");
      for (int r = 0; r < 50; ++r) {
        const std::int64_t start = now_ns();
        const std::string reply = client.request(cold_line);
        warm_rt_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
        if (r == 0) {
          check(report_of(reply) == refs.at(p.label() + "/" + std::to_string(p.trials)),
                "serve warm reply differs from the one-shot report: " + p.label());
          if (i == 0) g_counters["serve.reply_bytes"] = static_cast<double>(reply.size());
        }
      }
    }
    if (i == 0) {
      warm_line = cold_line;
      reader = std::thread([&] {
        try {
          Client rclient{support::Stream::connect(socket_path)};
          const std::int64_t period = 2'000'000;  // 500 requests/s
          std::int64_t due = now_ns();
          std::int64_t free_at = due;
          while (!reader_stop.load(std::memory_order_relaxed)) {
            due += period;
            while (now_ns() < due) std::this_thread::sleep_for(std::chrono::microseconds(100));
            const std::int64_t sent = now_ns();
            lateness_ms.push_back(static_cast<double>(sent - std::max(due, free_at)) * 1e-6);
            rclient.request(warm_line);
            free_at = now_ns();
            ++reader_requests;
          }
        } catch (const std::exception&) {
          reader_failed.store(true);
        }
      });
    }
  }
  reader_stop.store(true);
  if (reader.joinable()) reader.join();
  check(!reader_failed.load(), "open-loop reader lost its connection");
  g_counters["loadgen.late_p99_ms"] = p99(lateness_ms);

  {
    // The reader's repeats are timing-dependent in number; leaving them out
    // makes the counters exact for a given plan.
    const support::JsonValue stats = support::parse_json(client.request("{\"op\":\"stats\"}"));
    const double requests =
        static_cast<double>(stats.at("requests").as_u64() - reader_requests);
    const double full_hits =
        static_cast<double>(stats.at("full_hits").as_u64() - reader_requests);
    g_counters["cache.full_hits"] = full_hits;
    g_counters["cache.extensions"] = static_cast<double>(stats.at("extensions").as_u64());
    g_counters["cache.misses"] = static_cast<double>(stats.at("misses").as_u64());
    g_counters["cache.trials_computed"] = static_cast<double>(stats.at("trials_computed").as_u64());
    g_counters["cache.hit_ratio"] = requests > 0 ? full_hits / requests : 0.0;
  }

  // The warm hit in-process, alone.
  const core::ScenarioSpec warm_spec =
      scenario_spec(plan.specs.front(), plan.seed, plan.specs.front().trials);
  std::vector<double> call_us;
  {
    Scope span("cache.warm_call");
    for (int r = 0; r < 200; ++r) {
      const std::int64_t start = now_ns();
      const core::ResultCacheOutcome outcome = server.cache().sweep(warm_spec);
      call_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      if (!outcome.warm) check(false, "in-process repeat was not a warm hit");
    }
  }
  const double warm_call_us = median(call_us);
  g_counters["cache.warm_call_us"] = warm_call_us;
  g_counters["serve.transport_us"] = median(warm_rt_us) - warm_call_us;

  // The same warm hit while a cold sweep of the largest spec (a fresh
  // seed, so it is cold) holds the cache.
  {
    const SpecPlan& big = plan.specs.back();
    const core::ScenarioSpec cold = scenario_spec(big, plan.seed + 1, big.trials);
    std::atomic<bool> started{false};
    Scope span("cache.warm_blocked");
    std::thread cold_thread([&] {
      started.store(true);
      try {
        server.cache().sweep(cold);
      } catch (const std::exception&) {
        started.store(false);
      }
    });
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::int64_t start = now_ns();
    const bool warm = server.cache().sweep(warm_spec).warm;
    g_counters["cache.warm_blocked_ms"] = static_cast<double>(now_ns() - start) * 1e-6;
    cold_thread.join();
    check(warm && started.load(), "warm hit beside a cold sweep failed");
  }

  // The JSON layer's share of a request: parsing one request line.
  {
    std::vector<double> parse_us;
    Scope span("json.parse");
    for (int r = 0; r < 200; ++r) {
      const std::int64_t start = now_ns();
      const support::JsonValue v = support::parse_json(warm_line);
      parse_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      if (v.find("scenario") == nullptr) check(false, "request line lost its scenario");
    }
    g_counters["json.parse_us"] = median(parse_us);
  }
  client.request("{\"op\":\"shutdown\"}");
}

/// Fabric coordinator in-process, fabric_workers real worker processes.
void fabric_probe(const Plan& plan, const std::string& reference) {
  const SpecPlan& p = plan.fabric;
  core::FabricOptions options;
  options.endpoint = support::parse_endpoint("unix:" + plan.workdir + "/fabric.sock");
  core::ResolvedScenario resolved = core::resolve_scenario(scenario_spec(p, plan.seed, p.trials));
  const core::ScenarioSpec spec = resolved.spec;
  const std::size_t point_count = spec.ns.size();
  core::FabricCoordinator coordinator(std::move(resolved), options);
  coordinator.start();
  std::vector<std::unique_ptr<Child>> workers;
  for (std::size_t w = 0; w < plan.fabric_workers; ++w) {
    workers.push_back(std::make_unique<Child>(std::vector<std::string>{
        plan.cli, "fabric-worker", "--connect", coordinator.endpoint().to_string(), "--name",
        "w" + std::to_string(w + 1), "--threads", "1"}));
  }
  {
    Scope span("fabric.run");
    coordinator.run();
  }
  check(coordinator.complete(), "fabric run did not complete");
  {
    Scope span("fabric.complete_to_exit");
    for (auto& worker : workers) worker->wait();
  }
  std::string report;
  {
    Scope span("fabric.merge");
    const std::vector<core::PointAccumulator> merged = core::merge_unit_results(
        coordinator.work_units(), coordinator.take_unit_results(), point_count);
    const core::ResolvedScenario finalizer = core::resolve_scenario(spec);
    std::vector<core::ScenarioPoint> points;
    for (const core::PointAccumulator& acc : merged) {
      core::ScenarioPoint point;
      point.point = core::finalize_point(acc, finalizer.sweep_options(acc.trial_count()));
      point.half_width = spec.schedule.half_width(point.point.avg_sd, acc.trial_count());
      points.push_back(std::move(point));
    }
    report = core::sweep_report_json(spec, points);
  }
  check(report == reference, "fabric merged report differs from the one-shot report");
  const core::FabricStats stats = coordinator.stats();
  g_counters["fabric.units_granted"] = static_cast<double>(stats.units_granted);
  g_counters["fabric.redispatches"] = static_cast<double>(stats.redispatches);
  g_counters["fabric.duplicates_discarded"] = static_cast<double>(stats.duplicates_discarded);
  g_counters["fabric.useful_grant_ratio"] =
      stats.units_granted > 0
          ? static_cast<double>(stats.results_accepted) / static_cast<double>(stats.units_granted)
          : 0.0;
}

// ---------------------------------------------------------- output ----

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void write_output(const std::string& path) {
  std::ofstream out(path);
  out.precision(17);
  out << "{\"spans\":[";
  const auto& spans = g_tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i ? "," : "") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":" << json_string(s.name) << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : g_counters) {
    out << (first ? "" : ",") << json_string(name) << ":" << value;
    first = false;
  }
  out << "},\"attempted\":" << g_attempted << ",\"failures\":[";
  for (std::size_t i = 0; i < g_failures.size(); ++i) {
    out << (i ? "," : "") << json_string(g_failures[i]);
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Runs perfbench_allocs on the same plan and takes over its counters and
/// check results.
void alloc_counts_from_child(const Plan& plan) {
  const std::string out = plan.workdir + "/allocs.json";
  Child child({plan.alloc_harness, plan.path, out});
  const int status = child.wait();
  const support::JsonValue v = support::parse_json(read_file(out));
  for (const auto& [name, value] : v.at("counters").members()) {
    g_counters[name] = value.as_double();
  }
  g_attempted += v.at("attempted").as_u64();
  const auto& failures = v.at("failures");
  for (std::size_t i = 0; i < failures.size(); ++i) g_failures.push_back(failures[i].as_string());
  check(status == 0 || failures.size() > 0, "perfbench_allocs exited " + std::to_string(status));
}

/// perfbench_allocs: the two alloc-counting probes only.
int run_alloc_probes(const Plan& plan) {
  view_probe(plan);
  msg_probe(plan);
  return g_failures.empty() ? 0 : 1;
}

int run(const Plan& plan) {
  support::ThreadPool pool(plan.threads);
  Scope root("harness");

  // References: every report below must equal these bytes.
  std::map<std::string, std::string> refs;
  auto ref_of = [&](const SpecPlan& p, std::size_t trials) -> const std::string& {
    return refs.at(p.label() + "/" + std::to_string(trials));
  };
  double wall = 0;
  for (const SpecPlan& p : plan.specs) {
    for (const std::size_t trials : {p.trials, p.trials + plan.extend_trials}) {
      refs[p.label() + "/" + std::to_string(trials)] = cli_sweep(plan, p, trials, wall);
    }
  }
  const std::string fabric_ref = cli_sweep(plan, plan.fabric, plan.fabric.trials, wall);

  // Warm-up, so every repetition below starts with a warm process.
  core::ScenarioExecution execution;
  execution.pool = &pool;
  auto run_untraced = [&](const SpecPlan& p) {
    const core::ScenarioResult result =
        core::run_scenario(scenario_spec(p, plan.seed, p.trials), execution);
    check(core::sweep_report_json(result.spec, result.points) == ref_of(p, p.trials),
          "run_scenario report differs from the one-shot report: " + p.label());
  };
  {
    Scope span("warmup.run_scenario");
    for (const SpecPlan& p : plan.specs) run_untraced(p);
  }

  // kReps repetitions of the whole workload, each spec three ways back to
  // back: the CLI process, the traced composition and untraced
  // run_scenario. Differences are taken within a repetition, where the
  // host's speed is nearly the same, and the median over repetitions is
  // reported.
  std::vector<double> unattributed_ms;
  std::vector<double> overhead_pct;
  for (int r = 0; r < kReps; ++r) {
    Scope rep_span("rep");
    double cli_s = 0;
    double traced_s = 0;
    double untraced_s = 0;
    for (const SpecPlan& p : plan.specs) {
      check(cli_sweep(plan, p, p.trials, wall) == ref_of(p, p.trials),
            "cli report is not reproducible: " + p.label());
      cli_s += wall;
      auto traced = [&] {
        const std::size_t id = g_tracer.spans().size() + 1;  // compose()'s root span
        check(compose(plan, p, &pool, r == 0) == ref_of(p, p.trials),
              "composed report differs from the one-shot report: " + p.label());
        traced_s += g_tracer.seconds(id);
      };
      auto untraced = [&] {
        Scope span("untraced.run_scenario");
        run_untraced(p);
        untraced_s += span.close();
      };
      // Alternate the order so neither side always runs second.
      if (r % 2 == 0) {
        traced();
        untraced();
      } else {
        untraced();
        traced();
      }
    }
    unattributed_ms.push_back((cli_s - traced_s) * 1e3);
    overhead_pct.push_back((traced_s - untraced_s) / untraced_s * 100.0);
  }
  g_counters["cli.unattributed_ms"] = median(unattributed_ms);
  g_counters["trace.overhead_pct"] = median(overhead_pct);

  for (const SpecPlan& p : plan.specs) ids_probe(plan, p);
  view_probe(plan);
  msg_probe(plan);
  {
    Scope span("probe.allocs");
    alloc_counts_from_child(plan);
  }
  pool_probe(plan, pool);
  {
    Scope span("probe.cache");
    cache_probe(plan, refs);
  }
  {
    Scope span("probe.fabric");
    fabric_probe(plan, fabric_ref);
  }
  root.close();
  return g_failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--isa") {
    std::cout << support::simd::active_isa() << "\n";
    return 0;
  }
  if (argc != 3) {
    std::cerr << "usage: perfbench_harness --isa | PLAN.json OUT.json\n";
    return 2;
  }
  int status = 1;
  try {
    const Plan plan = read_plan(argv[1]);
    status = kCountAllocs ? run_alloc_probes(plan) : run(plan);
  } catch (const std::exception& e) {
    g_failures.push_back(std::string("harness error: ") + e.what());
  }
  try {
    write_output(argv[2]);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  for (const std::string& f : g_failures) std::cerr << "FAILED: " << f << "\n";
  return status;
}
