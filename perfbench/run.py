#!/usr/bin/env python3
"""The avglocal benchmark. Run from the root of an avglocal checkout:

    python3 perfbench/run.py --workload ring-view --seed 1 --seconds 10 --trace 0

It builds avglocal_cli and the traced harness from the checkout's sources,
then runs one workload (see BENCHMARK.json and perfbench/README.md):

  --trace 0  drives the built CLI from outside with tracing off and reports
             the end-to-end metrics;
  --trace 1  runs perfbench_harness, which composes the same workload from
             the library's public calls with a span around each call, and
             reports the per-layer metrics.

Human-readable lines (every metric with unit and sample count, the
attribution block) go to stdout first; the last stdout line is the JSON
result. A byte-mismatched report or any failed operation makes the run exit
1; a missing source tree or failed build exits 2 without a result.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "lib"))

import measure  # noqa: E402
import system  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
HARNESS_TIMEOUT_S = 170
RESIDUAL_LIMIT_PCT = json.loads((HERE / "targets.json").read_text())["residual_limit_pct"]


def declared_metrics(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ------------------------------------------------------------- trace run

def _spec(algo, ns, trials):
    return {"algo": algo, "graph": "cycle", "ns": list(ns), "trials": trials}


def trace_plan(workload):
    """The harness plan: the workload's own sweeps at trace scale, and the
    probe specs for layers the workload does not exercise itself (the view
    probe is always cv3, the message probe local3, as in the workloads that
    do exercise them)."""
    view_default = _spec("cv3", (4096,), 8)
    msg_default = _spec("local3", (4096,), 8)
    if workload == "ring-view":
        specs = [_spec("cv3", workloads.RING_VIEW_NS, 8),
                 _spec("largest-id", workloads.RING_VIEW_NS, 8)]
        return specs, specs[0], msg_default
    if workload == "ring-message":
        specs = [_spec("local3", workloads.RING_MESSAGE_NS, 8), _spec("largest-id-msg", (256,), 8)]
        return specs, view_default, specs[0]
    if workload == "serve-mix":
        specs = [_spec(a, workloads.SERVE_NS, workloads.COLD_TRIALS)
                 for a in workloads.SERVE_ALGOS]
        return specs, specs[0], specs[1]
    specs = [_spec("local3", workloads.RING_MESSAGE_NS, 16)]
    return specs, view_default, specs[0]


def per_layer_metrics(doc, units):
    spans, counters = doc["spans"], doc["counters"]

    def rep_ms(name):
        """The composition's layers: median over the harness's repetitions."""
        return measure.span_rep_median_ns(spans, "rep", name) / 1e6

    def span_ms(name):
        return measure.span_total_ns(spans, name) / 1e6

    values = {
        "scenario.resolve_ms": rep_ms("scenario.resolve"),
        "scenario.report_ms": rep_ms("scenario.report"),
        "graph.build_ms": rep_ms("graph.build"),
        "driver.prepare_ms": rep_ms("driver.prepare"),
        "driver.run_trials_ms": rep_ms("driver.run_trials"),
        "driver.finalize_ms": rep_ms("driver.finalize"),
        "fabric.complete_to_exit_ms": span_ms("fabric.complete_to_exit"),
        "fabric.merge_ms": span_ms("fabric.merge"),
        "ids.fill_ns_per_vertex_trial":
            measure.span_total_ns(spans, "ids.fill") / counters["ids.vertex_trials"],
        "msg.ns_per_node_round":
            measure.span_total_ns(spans, "msg.run") / counters["msg.node_rounds"],
        "trace.residual_pct": measure.span_residual_pct(spans),
    }
    for name in units:
        if name not in values:
            values[name] = counters[name]
    return {name: workloads.metric(values[name], units[name], 1) for name in units}


def run_trace(workload, seed, binaries, run_dir, root):
    specs, view_probe, msg_probe = trace_plan(workload)
    plan = {
        "cli": binaries["cli"], "alloc_harness": binaries["allocs"],
        "workdir": str(run_dir), "seed": seed, "threads": workloads.THREADS,
        "extend_trials": workloads.EXTEND_TRIALS, "fabric_workers": 3,
        "specs": specs, "view_probe": view_probe, "msg_probe": msg_probe, "fabric": specs[0],
    }
    plan_path = run_dir / "plan.json"
    out_path = run_dir / "trace.json"
    (root / plan_path).write_text(json.dumps(plan))
    proc = system.Proc([binaries["harness"], str(plan_path), str(out_path)], cwd=root,
                       timeout=HARNESS_TIMEOUT_S, log=root / run_dir / "stderr.log")
    status = proc.wait()
    if not (root / out_path).exists():
        raise system.BenchError("harness wrote no output (exit %s)" % status)
    doc = json.loads((root / out_path).read_text())
    metrics = per_layer_metrics(doc, declared_metrics("per_layer"))
    failures = list(doc["failures"])
    if status != 0 and not failures:
        failures.append("harness exited %s" % status)
    residual = metrics["trace.residual_pct"]["value"]
    attempted = doc["attempted"] + 1
    if residual > RESIDUAL_LIMIT_PCT:
        failures.append("span residual %.2f%% exceeds %.1f%%" % (residual, RESIDUAL_LIMIT_PCT))
    notes = {"residual_limit_pct": RESIDUAL_LIMIT_PCT}
    return metrics, notes, attempted, failures


# ------------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter every reference report (the run must then fail)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    system.stop_children_on_exit()

    root = Path.cwd()
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = build_root if build_root.is_absolute() else root / build_root
    try:
        binaries = system.build(root, build_root)
    except system.BenchError as e:
        system.log("perfbench: %s" % e)
        return 2
    if args.workload != "all":
        return run_workload(args, args.workload, root, binaries)
    status = 0
    for workload in sorted(workloads.WORKLOADS):
        print("== %s" % workload, flush=True)
        status = max(status, run_workload(args, workload, root, binaries))
    return status


def run_workload(args, workload, root, binaries):
    run_dir = Path(".bench_run") / ("%s-%d-%d" % (workload, args.seed, os.getpid()))
    (root / run_dir).mkdir(parents=True, exist_ok=True)
    try:
        attribution = system.attribution(root, binaries["repo_build"], binaries["harness"])
        if args.trace:
            metrics, notes, attempted, failures = run_trace(
                workload, args.seed, binaries, run_dir, root)
        else:
            ctx = workloads.Context(root, run_dir, binaries, args.seconds, args.corrupt_reference)
            metrics, notes = workloads.WORKLOADS[workload](ctx, args.seed)
            attempted, failures = ctx.attempted, ctx.failures
    except system.BenchError as e:
        system.log("perfbench: %s" % e)
        return 2
    finally:
        shutil.rmtree(root / run_dir, ignore_errors=True)

    result = {
        "schema": measure.RESULT_SCHEMA, "workload": workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "attribution": attribution,
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": metrics, "notes": notes,
    }
    measure.validate_result(result, declared_metrics("per_layer" if args.trace else "end_to_end"))
    results_dir = root / ".bench_run" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / ("%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))).write_text(
        json.dumps(result, indent=1) + "\n")

    print("attribution %s" % json.dumps(attribution))
    if not attribution["comparable"]:
        print("WARNING: %s build - numbers are not comparable" % attribution["build_type"])
    for name, m in list(metrics.items()) + [(k, v) for k, v in notes.items()
                                             if isinstance(v, dict) and "unit" in v]:
        print("metric %-34s %14.6g %-6s (n=%d)" % (name, m["value"], m["unit"], m["samples"]))
    print("metric %-34s %14.6g %-6s (n=%d)" % ("failed_frac", len(failures) / attempted,
                                                "ratio", attempted))
    for failure in failures:
        print("FAILED: %s" % failure)
    print(json.dumps(measure.final_line(result)), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
