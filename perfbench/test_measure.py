"""Unit tests of the benchmark driver's own helpers.

Run with ``python3 -m pytest perfbench/test_measure.py``; they need
neither ``repro`` nor a benchmark run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from measure import (
    TooFewSamples,
    digest_mismatch,
    output_digest,
    percentile,
    round_percentile,
    self_time,
    tiling_error,
)
from run import END_TO_END
from spans import Patcher, SpanRecorder
from summarize import LAYER_METRICS, MissingSeams, ProcessSpans, _faults, load_processes
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestPercentile:
    def test_p90_needs_ten_samples_beyond_it(self):
        values = [float(i) for i in range(100)]
        assert percentile(values, 90) == pytest.approx(89.1)
        with pytest.raises(TooFewSamples):
            percentile(values[:99], 90)

    def test_median_needs_twenty_samples(self):
        assert percentile([float(i) for i in range(20)], 50) == pytest.approx(9.5)
        with pytest.raises(TooFewSamples):
            percentile([float(i) for i in range(19)], 50)

    def test_order_of_input_does_not_matter(self):
        values = [float((7 * i) % 101) for i in range(101)]
        assert percentile(values, 50) == 50.0

    def test_short_repeats_are_pooled(self):
        repeats = [[float(i) for i in range(40)] for _ in range(3)]
        value, count, pooled = round_percentile(repeats, 90)
        assert pooled and count == 120
        assert value == pytest.approx(percentile([v for r in repeats for v in r], 90))

    def test_long_repeats_give_the_median_of_their_percentiles(self):
        repeats = [[float(i + shift) for i in range(150)] for shift in (0, 10, 1000)]
        value, count, pooled = round_percentile(repeats, 90)
        assert not pooled and count == 450
        assert value == pytest.approx(percentile(repeats[1], 90))

    def test_too_few_rounds_even_pooled(self):
        with pytest.raises(TooFewSamples):
            round_percentile([[1.0] * 30, [2.0] * 30], 90)


class TestSelfTime:
    def test_disjoint_children_are_subtracted(self):
        assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)

    def test_no_children(self):
        assert self_time(1.0, 2.5, []) == pytest.approx(1.5)

    def test_layer_totals_count_outermost_spans_and_self_time(self):
        dump = {
            "spans": [
                [1, "server.update", 0.0, 10.0, None, 0],
                [2, "aggregate.rule", 1.0, 9.0, 1, 0],
                [3, "aggregate.first_stage", 2.0, 4.0, 2, 0],
                [4, "worker.uploads", 5.0, 6.0, 2, 0],
            ],
            "counts": {},
        }
        process = ProcessSpans(dump)
        assert process.by_layer["aggregate"] == [1, 8.0, 5.0 + 2.0]
        assert process.by_name["aggregate.rule"][2] == pytest.approx(5.0)
        assert process.by_name["server.update"][2] == pytest.approx(2.0)


class TestDigest:
    def test_equal_outputs_give_equal_digests(self):
        assert output_digest("table\n", {"a": [1.0]}, "ff") == output_digest(
            "table\n", {"a": [1.0]}, "ff"
        )

    @pytest.mark.parametrize(
        "changed",
        [("table!\n", {"a": [1.0]}, "ff"), ("table\n", {"a": [1.5]}, "ff"),
         ("table\n", {"a": [1.0]}, "fe")],
    )
    def test_any_part_changes_the_digest(self, changed):
        assert output_digest(*changed) != output_digest("table\n", {"a": [1.0]}, "ff")

    def test_mismatch_reasons(self):
        assert digest_mismatch("run", "abc", "abc") is None
        assert "!=" in digest_mismatch("run", "abc", "abd")
        assert "missing" in digest_mismatch("run", None, "abc")
        assert "missing" in digest_mismatch("run", "abc", None)


class TestTiling:
    PHASES = [("setup", 1.0), ("rounds", 2.0), ("teardown", 0.5)]

    def test_phases_that_tile_the_wall_time(self):
        assert tiling_error(3.55, self.PHASES, [0.5, 0.7, 0.79]) is None

    def test_negative_phase(self):
        error = tiling_error(3.5, [("setup", 4.0), ("rounds", -0.5), ("teardown", 0.0)])
        assert "negative" in error

    def test_time_outside_every_phase(self):
        assert "outside" in tiling_error(4.1, self.PHASES)

    def test_phases_longer_than_the_wall_time(self):
        assert "outside" in tiling_error(3.4, self.PHASES)

    def test_rounds_longer_than_their_window(self):
        assert "window" in tiling_error(3.5, self.PHASES, [1.2, 1.2])

    def test_gaps_between_rounds_escape_the_round_latencies(self):
        # 0.2 s of the 2 s window falls between on_round_end and the next start
        assert "gaps" in tiling_error(3.5, self.PHASES, [0.9, 0.9])


class TestMissingSeams:
    def test_a_seam_the_program_lacks_is_listed(self):
        recorder = SpanRecorder()
        patch = Patcher(recorder)
        patch.function("json:no_such_function", lambda original: original)
        patch.method("json:JSONDecoder.no_such_method", lambda original: original)
        assert recorder.missing == ["json:no_such_function", "json:JSONDecoder.no_such_method"]

    def test_a_missing_seam_fails_the_traced_run(self, tmp_path):
        complete, partial = tmp_path / "run.json", tmp_path / "worker.json"
        SpanRecorder().dump(str(complete), role="run")
        recorder = SpanRecorder()
        recorder.missing.append("repro.core.first_stage:FirstStageFilter.apply_batch")
        recorder.dump(str(partial), role="worker")
        assert len(load_processes([complete])) == 1
        with pytest.raises(MissingSeams, match="apply_batch"):
            load_processes([complete, partial])


class TestFaultAccounting:
    def test_buffered_stragglers_are_not_counted_as_survivors_twice(self):
        diagnostics = [
            {"n_workers": 10, "fault_survivors": 7.0, "fault_retried": 1.0, "fault_buffered": 2.0},
            {"n_workers": 10, "fault_survivors": 11.0, "fault_buffered": 0.0},
            {"n_workers": 10},
        ]
        lost, retried, ratio = _faults(diagnostics)
        assert (lost, retried) == (4.0, 1.0)
        assert ratio == pytest.approx(1 - 4 / 30)

    def test_remote_losses_are_reported_directly(self):
        lost, _, _ = _faults([{"n_workers": 5, "fault_lost": 2.0, "fault_survivors": 3.0}])
        assert lost == 2.0


class TestBenchmarkFile:
    def test_end_to_end_metrics_match_the_driver(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END

    def test_per_layer_metrics_match_the_summariser(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
            name: unit for name, (unit, _) in LAYER_METRICS.items()
        }

    def test_workloads_match_their_definitions(self):
        assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
            name: workload.why for name, workload in WORKLOADS.items()
        }
