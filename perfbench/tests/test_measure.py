"""Self-tests of the benchmark's own arithmetic and of its definition.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "lib"))

import measure  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
TARGETS = json.loads((HERE.parent / "targets.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(measure.percentile(values, 50), 50)
        self.assertEqual(measure.percentile(values, 99), 99)
        self.assertEqual(measure.percentile(values, 100), 100)
        self.assertEqual(measure.percentile([5.0], 99), 5.0)

    def test_p99_needs_ten_samples_beyond_it(self):
        # 1000 samples: p99 is rank 990, exactly 10 beyond.
        self.assertEqual(measure.tail(list(range(1000))), (99.0, 989, 1000))
        # 999 samples: p99 would leave 9 beyond, so p90 is the tail.
        self.assertEqual(measure.tail(list(range(999)))[0], 90.0)

    def test_p999_with_enough_samples(self):
        self.assertEqual(measure.tail(list(range(10000)))[0], 99.9)

    def test_small_samples(self):
        self.assertEqual(measure.tail(list(range(20))), (50.0, 9, 20))
        self.assertIsNone(measure.tail(list(range(19))))

    def test_tail_name(self):
        self.assertEqual(measure.tail_name("warm", 99.0), "warm_p99")
        self.assertEqual(measure.tail_name("warm", 99.9), "warm_p99.9")


class OpenLoop(unittest.TestCase):
    def test_due_times_do_not_drift(self):
        due = measure.open_loop_due_times(10.0, 4.0)
        self.assertEqual([next(due) for _ in range(4)], [10.25, 10.5, 10.75, 11.0])

    def test_latency_counts_from_due_time_through_a_stall(self):
        # Requests due at 1, 2, 3; the first reply stalls until 3.5, so the
        # later two go out late and their latency includes the stall.
        records = [(1.0, 1.0, 3.5), (2.0, 3.5, 3.6), (3.0, 3.6, 3.7)]
        latencies, lateness = measure.open_loop_latencies(records)
        for got, want in zip(latencies, [2.5, 1.6, 0.7]):
            self.assertAlmostEqual(got, want)
        # The generator itself sent each request as soon as it could.
        self.assertEqual(lateness, [0.0, 0.0, 0.0])

    def test_generator_lateness(self):
        records = [(1.0, 1.25, 1.5), (2.0, 2.5, 2.75)]
        latencies, lateness = measure.open_loop_latencies(records)
        self.assertEqual(latencies, [0.5, 0.75])
        self.assertEqual(lateness, [0.25, 0.5])

    def test_rejects_out_of_order_records(self):
        with self.assertRaises(ValueError):
            measure.open_loop_latencies([(1.0, 1.0, 2.0), (1.5, 1.5, 1.8)])


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}


class Spans(unittest.TestCase):
    SPANS = [
        span(1, 0, "harness", 0, 1000),
        span(2, 1, "compose", 0, 600),
        span(3, 2, "graph.build", 10, 110),
        span(4, 2, "driver.run_trials", 110, 590),
        span(5, 1, "probe.cache", 600, 990),
        span(6, 5, "serve.cold", 610, 980),
    ]

    def test_self_time_subtracts_children(self):
        self.assertEqual(measure.span_self_times(self.SPANS),
                         {1: 10, 2: 20, 3: 100, 4: 480, 5: 20, 6: 370})

    def test_residual_is_container_self_time_over_wall(self):
        # Unattributed: harness 10 + compose 20 + probe.cache 20 of 1000.
        self.assertAlmostEqual(measure.span_residual_pct(self.SPANS), 5.0)

    def test_total_by_name(self):
        self.assertEqual(measure.span_total_ns(self.SPANS + [span(7, 1, "graph.build", 0, 5)],
                                               "graph.build"), 105)

    def test_median_over_repetitions(self):
        spans = [span(1, 0, "harness", 0, 100)]
        for r, (start, build) in enumerate([(0, 5), (30, 9), (60, 7)]):
            rep = 2 + 3 * r
            spans += [span(rep, 1, "rep", start, start + 30),
                      span(rep + 1, rep, "compose", start, start + 20),
                      span(rep + 2, rep + 1, "graph.build", start, start + build)]
        # A graph.build outside any repetition does not count.
        spans.append(span(20, 1, "graph.build", 90, 99))
        self.assertEqual(measure.span_rep_median_ns(spans, "rep", "graph.build"), 7)
        with self.assertRaises(ValueError):
            measure.span_rep_median_ns(spans, "missing", "graph.build")

    def test_unknown_parent(self):
        with self.assertRaises(ValueError):
            measure.span_self_times([span(1, 9, "x", 0, 1)])


def good_result():
    return {
        "schema": measure.RESULT_SCHEMA, "workload": "ring-view", "seed": 1, "trace": 0,
        "seconds": 10, "notes": {},
        "attribution": {"nproc": 4, "cpu_model": "x", "isa": "avx2", "compiler": "GNU 12",
                        "build_type": "Release", "git_commit": "abc", "comparable": True},
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 0.5, "unit": "s", "samples": 5}},
    }


class Schema(unittest.TestCase):
    def test_good_result_and_final_line(self):
        result = good_result()
        measure.validate_result(result, {"setup_s": "s"})
        line = measure.final_line(result)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"setup_s": {"value": 0.5, "unit": "s"}})

    def test_rejects(self):
        cases = [
            lambda r: r["metrics"].clear(),
            lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
            lambda r: r["metrics"]["setup_s"].update(samples=0),
            lambda r: r.update(attempted=True),
            lambda r: r.update(attempted=0, failed=0),
            lambda r: r.update(extra=1),
            lambda r: r["attribution"].pop("isa"),
        ]
        for mutate in cases:
            result = good_result()
            mutate(result)
            with self.assertRaises(ValueError):
                measure.validate_result(result, {"setup_s": "s"})


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Definition(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["perfbench"])
        names = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        seen = set(names)
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))

    def test_every_per_layer_metric_has_a_target(self):
        per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(per_layer, set(TARGETS["per_layer"]))
        moved = {m["name"] for m in BENCHMARK["end_to_end"]}
        moved |= set(TARGETS["serve_mix_notes"]) | {"validity"}
        for name, target in TARGETS["per_layer"].items():
            self.assertTrue(set(target["moves"]) <= moved, name)
            self.assertTrue(set(target["exercised_on"]) <= set(workloads.WORKLOADS), name)
            self.assertTrue(set(target["flat_on"]) <= set(workloads.WORKLOADS), name)

    def test_seeds_recorded(self):
        self.assertNotEqual(TARGETS["default_seed"], TARGETS["held_out_seed"])


class ServeMixRequests(unittest.TestCase):
    def test_request_list_is_seeded(self):
        self.assertEqual([[(k, s.key()) for k, s in p] for p in workloads.explorer_passes(3, 2)],
                         [[(k, s.key()) for k, s in p] for p in workloads.explorer_passes(3, 2)])
        self.assertNotEqual(workloads.explorer_passes(3, 1)[0][0][1].key(),
                            workloads.explorer_passes(4, 1)[0][0][1].key())

    def test_every_extension_follows_its_cold_request(self):
        for ops in workloads.explorer_passes(5, 3):
            self.assertEqual(len(ops), 2 * len(workloads.SERVE_ALGOS) * len(workloads.SERVE_NS))
            seen = set()
            for kind, spec in ops:
                base = (spec.algo, spec.ns, spec.seed)
                if kind == "cold":
                    seen.add(base)
                else:
                    self.assertIn(base, seen)
                    self.assertEqual(spec.trials, workloads.COLD_TRIALS + workloads.EXTEND_TRIALS)


if __name__ == "__main__":
    unittest.main()
