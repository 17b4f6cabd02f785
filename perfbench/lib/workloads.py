"""The four workloads, run from outside through the built avglocal_cli
(and tools/fabric_launch.sh), with tracing off.

The one-shot and fabric workloads repeat whole rounds of identical work
until --seconds has passed; serve-mix runs a number of explorer passes
fixed by --seconds. Each run therefore measures whole rounds of one fixed
mix, and its medians do not depend on where the clock stopped. The sweeps'
--seed and the serve-mix request list come from the workload seed. Every
report is byte-compared with a one-shot `sweep --json` of the same spec,
computed outside the timed region."""

import json
import os
import random
import socket
import threading
import time
from pathlib import Path

from measure import median, open_loop_due_times, open_loop_latencies, tail, tail_name
from system import BenchError, Proc, proc_cpu_s

THREADS = 2          # worker threads of every process under test
# Set-up is measured this many times, after one untimed warm-up, and the
# median reported. Set-up times are short and some are quantised (the
# fabric launcher polls for the coordinator's endpoint every 50 ms), so
# they need many samples for a steady median.
SETUP_REPEATS = 15
PROC_TIMEOUT_S = 120
RING_VIEW_NS = (4096, 16384, 65536)
RING_MESSAGE_NS = (4096, 16384)


class Spec:
    """One sweep: algorithm on a cycle at sizes ns, `trials` trials, `seed`."""

    def __init__(self, algo, ns, trials, seed):
        self.algo, self.ns, self.trials, self.seed = algo, tuple(ns), trials, seed

    def with_trials(self, trials):
        return Spec(self.algo, self.ns, trials, self.seed)

    def key(self):
        return (self.algo, self.ns, self.trials, self.seed)

    def node_trials(self):
        return sum(self.ns) * self.trials

    def cli_flags(self):
        return ["--algo", self.algo, "--graph", "cycle", "--ns", ",".join(map(str, self.ns)),
                "--trials", str(self.trials), "--seed", str(self.seed)]

    def scenario(self):
        """The canonical scenario block the daemon expects."""
        return {"family": "cycle", "family_params": {}, "algorithm": self.algo,
                "ns": list(self.ns), "semantics": "induced", "seed": self.seed,
                "schedule": {"max_trials": self.trials, "min_trials": 16, "batch": 16,
                             "target_half_width": 0, "z": 1.96},
                "quantile_probs": [0.5, 0.9, 0.99], "node_profile": False}


def derive_seed(seed, *parts):
    """A deterministic 32-bit sweep seed from the workload seed."""
    return random.Random(repr((seed,) + parts)).getrandbits(32)


class Context:
    """One run's paths, binaries, reference reports and check tally."""

    def __init__(self, root, run_dir, binaries, seconds, corrupt_reference=False):
        self.root = Path(root)
        self.run_dir = Path(run_dir)          # relative to root: socket paths stay short
        self.cli = binaries["cli"]
        self.seconds = seconds
        self.corrupt_reference = corrupt_reference
        self.references = {}
        self.attempted = 0
        self.failures = []
        self._files = 0

    def fresh_path(self, stem, suffix=".json"):
        self._files += 1
        return self.run_dir / ("%s-%d%s" % (stem, self._files, suffix))

    def proc(self, args, env=None):
        return Proc(args, cwd=self.root, timeout=PROC_TIMEOUT_S,
                    log=self.root / self.run_dir / "stderr.log", env=env)

    def sweep(self, spec, threads=THREADS):
        """Starts a one-shot CLI sweep; returns (proc, report path)."""
        out = self.fresh_path("sweep")
        args = [self.cli, "sweep"] + spec.cli_flags() + ["--threads", str(threads),
                                                         "--json", str(out)]
        return self.proc(args), out

    def reference(self, spec, threads=1):
        """The one-shot `sweep --json` report of spec (cached). Serial by
        default, a different execution topology from the timed runs."""
        if spec.key() not in self.references:
            proc, out = self.sweep(spec, threads=threads)
            if proc.wait() != 0:
                raise BenchError("reference sweep failed: %s" % " ".join(proc.args))
            text = (self.root / out).read_text()
            if text.endswith("\n"):
                text = text[:-1]
            if self.corrupt_reference:
                text = text.replace('"avg_mean":', '"avg_mean":9', 1)
            self.references[spec.key()] = text
        return self.references[spec.key()]

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_file(self, spec, path, what):
        text = (self.root / path).read_text() if (self.root / path).exists() else ""
        self.check(text.endswith("\n") and text[:-1] == self.reference(spec),
                   "%s: report differs from the one-shot reference (%s)" % (what, spec.algo))


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


# ----------------------------------------------------- one-shot workloads

def _round_specs(name, seed, trials):
    if name == "ring-view":
        return [Spec("cv3", RING_VIEW_NS, trials, derive_seed(seed, "cv3")),
                Spec("largest-id", RING_VIEW_NS, trials, derive_seed(seed, "largest-id"))]
    return [Spec("local3", RING_MESSAGE_NS, trials, derive_seed(seed, "local3")),
            Spec("largest-id-msg", (256,), trials, derive_seed(seed, "largest-id-msg"))]


class _Round:
    """One pass over a workload's processes, each started after the
    previous one ended, with the (spec, report path) each one wrote."""

    def __init__(self, procs, reports):
        self.procs = procs
        self.reports = reports

    @property
    def wall_s(self):
        return sum(p.wall_s for p in self.procs)


def _run_rounds(start_round, deadline_s):
    """Repeats start_round() until deadline_s of wall time have passed."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < deadline_s:
        rounds.append(start_round())
    return rounds


def _summarise(setup_walls, rounds, node_trials_per_round):
    """Every round does the same work, so throughput and CPU cost are
    medians over rounds: one slow round on a shared host moves them less
    than it would move a total."""
    procs = [p for r in rounds for p in r.procs]
    walls = [r.wall_s for r in rounds]
    cpus = [sum(p.cpu_s for p in r.procs) for r in rounds]
    return {
        "setup_s": metric(median(setup_walls), "s", len(setup_walls)),
        "node_trials_per_s": metric(node_trials_per_round / median(walls), "1/s", len(rounds)),
        "peak_rss_mb": metric(max(p.maxrss_mb for p in procs), "MB", len(procs)),
        "cold_p50_ms": metric(median(walls) * 1e3, "ms", len(rounds)),
        "cpu_ns_per_node_trial": metric(median(cpus) / node_trials_per_round * 1e9, "ns",
                                        len(rounds)),
    }


def run_oneshot(ctx, name, seed):
    """ring-view / ring-message: one round = each spec's one-shot CLI sweep
    with --threads 2, one after the other."""
    specs = _round_specs(name, seed, trials=8)
    setup_specs = [s.with_trials(1) for s in specs]
    for spec in specs + setup_specs:
        ctx.reference(spec)

    def one_round(round_specs):
        procs, reports = [], []
        for spec in round_specs:
            proc, out = ctx.sweep(spec)
            ctx.check(proc.wait() == 0, "sweep exited %s" % proc.status)
            procs.append(proc)
            reports.append((spec, out))
        return _Round(procs, reports)

    setups = [one_round(setup_specs) for _ in range(SETUP_REPEATS + 1)]
    rounds = _run_rounds(lambda: one_round(specs), ctx.seconds)
    for r in setups + rounds:
        for spec, out in r.reports:
            ctx.check_file(spec, out, name)
    return _summarise([r.wall_s for r in setups[1:]], rounds,
                      sum(s.node_trials() for s in specs)), {}


def run_fabric(ctx, seed):
    """fabric-3w: one round = tools/fabric_launch.sh with three local
    workers at --worker-threads 1 over a Unix endpoint, on ring-message's
    local3 spec."""
    spec = _round_specs("ring-message", seed, trials=32)[0]
    setup_spec = spec.with_trials(1)
    ctx.reference(spec)
    ctx.reference(setup_spec)
    env = dict(os.environ, TMPDIR=str(ctx.root / ctx.run_dir))

    def one_round(s):
        out = ctx.fresh_path("fabric")
        sock = ctx.fresh_path("fabric", ".sock")
        proc = ctx.proc(["bash", "tools/fabric_launch.sh", "--cli", ctx.cli,
                         "--listen", "unix:%s" % sock, "--workers", "local local local",
                         "--worker-threads", "1", "--json", str(out), "--"] + s.cli_flags(),
                        env=env)
        ctx.check(proc.wait() == 0, "fabric launch exited %s" % proc.status)
        return _Round([proc], [(s, out)])

    setups = [one_round(setup_spec) for _ in range(SETUP_REPEATS + 1)]
    rounds = _run_rounds(lambda: one_round(spec), ctx.seconds)
    for r in setups + rounds:
        for s, out in r.reports:
            ctx.check_file(s, out, "fabric-3w")
    return _summarise([r.wall_s for r in setups[1:]], rounds, spec.node_trials()), {}


# -------------------------------------------------------------- serve-mix

SERVE_NS = (4096, 16384, 65536)
SERVE_ALGOS = ("cv3", "local3")
COLD_TRIALS = 8
EXTEND_TRIALS = 16
REFERENCE_THREADS = 4  # serve-mix references are many; they run outside the window
READERS = 2
READER_RATE = 55.0   # requests/s per reader connection
# The explorer runs a fixed number of passes, seconds / PASS_S of them: the
# daemon keeps every workload it served resident, so its peak RSS is only
# comparable between runs that served the same number of workloads.
PASS_S = 3.0


class Connection:
    """One synchronous newline-JSON connection to the daemon. The socket
    path is relative to the checkout root (the working directory), which
    keeps it inside sockaddr_un's 108 bytes however deep the checkout is."""

    def __init__(self, path, timeout_s=2.0):
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(str(path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                self.sock.close()
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.0001)
        self.reader = self.sock.makefile("rb")

    def request(self, obj):
        """Sends one request line and returns the raw reply line."""
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return line

    def close(self):
        self.reader.close()
        self.sock.close()


def explorer_passes(seed, count):
    """The explorer's seeded request list: per pass, a cold request for
    each (algorithm, n) and a +EXTEND_TRIALS extension of it, shuffled so
    every extension follows its cold request. Seeds are fresh per pass, so
    every cold request misses the cache."""
    passes = []
    for index in range(count):
        rng = random.Random(repr((seed, "explorer", index)))
        colds = [Spec(algo, (n,), COLD_TRIALS, derive_seed(seed, "explorer", index, algo, n))
                 for algo in SERVE_ALGOS for n in SERVE_NS]
        rng.shuffle(colds)
        ops = [("cold", spec) for spec in colds]
        for spec in colds:
            position = ops.index(("cold", spec))
            ops.insert(rng.randint(position + 1, len(ops)), ("extend", spec.with_trials(
                COLD_TRIALS + EXTEND_TRIALS)))
        passes.append(ops)
    return passes


def warm_specs(seed):
    return [Spec(algo, (4096,), COLD_TRIALS, derive_seed(seed, "warm", algo))
            for algo in SERVE_ALGOS]


def _start_daemon(ctx, sock):
    """Spawns the daemon; returns (proc, connection, spawn-to-ping seconds)."""
    proc = ctx.proc([ctx.cli, "serve", "--socket", str(sock), "--threads", str(THREADS)])
    conn = Connection(sock, timeout_s=10.0)
    reply = json.loads(conn.request({"op": "ping"}))
    ready = time.perf_counter() - proc.started
    if not reply.get("ok"):
        raise BenchError("daemon did not answer ping")
    return proc, conn, ready


def run_serve_mix(ctx, seed):
    sock = ctx.run_dir / "serve.sock"
    setup_walls = []
    for attempt in range(SETUP_REPEATS):
        proc, conn, ready = _start_daemon(ctx, sock)
        if attempt > 0:
            setup_walls.append(ready)
        conn.request({"op": "shutdown"})
        conn.close()
        ctx.check(proc.wait() == 0, "daemon exited %s" % proc.status)
    daemon, control, ready = _start_daemon(ctx, sock)
    setup_walls.append(ready)
    try:
        return _serve_mix_window(ctx, seed, sock, daemon, control, setup_walls)
    finally:
        daemon.kill()


def _serve_mix_window(ctx, seed, sock, daemon, control, setup_walls):
    warm = warm_specs(seed)
    for spec in warm:
        ctx.reference(spec)
        reply = json.loads(control.request({"op": "sweep", "scenario": spec.scenario()}))
        ctx.check(reply.get("ok") and reply["report"] == ctx.reference(spec),
                  "serve-mix: warm-set fill differs from the one-shot reference")

    explorer_log = []      # (pass index, kind, spec, seconds, raw reply)
    pass_marks = []        # (wall, daemon CPU) at the start and after each pass
    reader_logs = [[] for _ in range(READERS)]   # (spec, due, sent, done, raw reply)
    passes = explorer_passes(seed, max(1, round(ctx.seconds / PASS_S)))
    errors = []
    explorer_end = []      # when the explorer's last reply arrived

    def explorer():
        conn = Connection(sock)
        try:
            pass_marks.append((time.perf_counter(), proc_cpu_s(daemon.popen.pid)))
            for index, ops in enumerate(passes):
                for kind, spec in ops:
                    sent = time.perf_counter()
                    raw = conn.request({"op": "sweep", "scenario": spec.scenario()})
                    explorer_log.append((index, kind, spec, time.perf_counter() - sent, raw))
                pass_marks.append((time.perf_counter(), proc_cpu_s(daemon.popen.pid)))
        except Exception as e:  # noqa: BLE001 - reported as a failed run
            errors.append("explorer: %s" % e)
        finally:
            explorer_end.append(time.perf_counter())
            conn.close()

    def reader(index, start):
        conn = Connection(sock)
        try:
            # Every request due before the explorer finished is sent, however
            # late: dropping a backlog would hide the stall that caused it.
            for k, due in enumerate(open_loop_due_times(start, READER_RATE)):
                if explorer_end and due > explorer_end[0]:
                    return
                spec = warm[(k + index) % len(warm)]
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                raw = conn.request({"op": "sweep", "scenario": spec.scenario()})
                reader_logs[index].append((spec, due, sent, time.perf_counter(), raw))
        except Exception as e:  # noqa: BLE001
            errors.append("reader %d: %s" % (index, e))
        finally:
            conn.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=explorer)]
    threads += [threading.Thread(target=reader, args=(i, start)) for i in range(READERS)]
    for t in threads:
        t.start()
    threads[0].join()
    for t in threads[1:]:
        t.join()
    if errors:
        raise BenchError("; ".join(errors))

    stats = json.loads(control.request({"op": "stats"}))
    control.request({"op": "shutdown"})
    control.close()
    ctx.check(daemon.wait() == 0, "daemon exited %s" % daemon.status)

    # Outside the timed region: byte-check every reply.
    node_trials = [0] * len(passes)
    cold_pass_ms = [0.0] * len(passes)
    extend_ms = []
    for index, kind, spec, seconds, raw in explorer_log:
        ctx.reference(spec, threads=REFERENCE_THREADS)
        reply = json.loads(raw)
        ok = reply.get("ok") and reply["report"] == ctx.reference(spec)
        ctx.check(ok, "serve-mix: %s reply differs from the one-shot reference" % kind)
        if reply.get("ok"):
            node_trials[index] += reply["trials_computed"] * spec.ns[0]
        if kind == "cold":
            cold_pass_ms[index] += seconds * 1e3
        else:
            extend_ms.append(seconds * 1e3)
    # Every pass computes the same trials, so throughput, CPU cost and cold
    # latency are medians over passes. A pooled median of the cold requests
    # would land between two (algorithm, n) classes and swing with them.
    throughput, cpu_cost = [], []
    for index, work in enumerate(node_trials):
        (t0, c0), (t1, c1) = pass_marks[index], pass_marks[index + 1]
        throughput.append(work / (t1 - t0))
        cpu_cost.append((c1 - c0) / work * 1e9)
    warm_ms, lateness_ms = [], []
    for log in reader_logs:
        latencies, lateness = open_loop_latencies([(d, s, e) for _, d, s, e, _ in log])
        warm_ms += [x * 1e3 for x in latencies]
        lateness_ms += [x * 1e3 for x in lateness]
        for spec, _, _, _, raw in log:
            reply = json.loads(raw)
            ctx.check(reply.get("ok") and reply.get("warm") and
                      reply["report"] == ctx.reference(spec),
                      "serve-mix: warm reply differs from the one-shot reference")

    metrics = {
        "setup_s": metric(median(setup_walls), "s", len(setup_walls)),
        "node_trials_per_s": metric(median(throughput), "1/s", len(passes)),
        "peak_rss_mb": metric(daemon.maxrss_mb, "MB", 1),
        "cold_p50_ms": metric(median(cold_pass_ms), "ms", len(passes)),
        "cpu_ns_per_node_trial": metric(median(cpu_cost), "ns", len(passes)),
    }
    notes = {"warm_p50_ms": metric(median(warm_ms), "ms", len(warm_ms)),
             "extend_p50_ms": metric(median(extend_ms), "ms", len(extend_ms))}
    warm_tail = tail(warm_ms)
    if warm_tail:
        notes[tail_name("warm", warm_tail[0]) + "_ms"] = metric(warm_tail[1], "ms", warm_tail[2])
    late_tail = tail(lateness_ms)
    if late_tail:
        notes[tail_name("loadgen.late", late_tail[0]) + "_ms"] = metric(
            late_tail[1], "ms", late_tail[2])
    notes["cache"] = {k: stats[k] for k in ("requests", "full_hits", "extensions", "misses",
                                            "trials_computed") if k in stats}
    return metrics, notes


WORKLOADS = {
    "ring-view": lambda ctx, seed: run_oneshot(ctx, "ring-view", seed),
    "ring-message": lambda ctx, seed: run_oneshot(ctx, "ring-message", seed),
    "serve-mix": run_serve_mix,
    "fabric-3w": run_fabric,
}
