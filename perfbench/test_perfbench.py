"""Self-tests of the benchmark's own arithmetic and determinism.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (path set above)

mlmem = run.import_engine()

import calibration  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402



@pytest.mark.parametrize("n", [20, 40, 48, 56, 100, 168, 600, 1440, 5000])
def test_tail_percentile_leaves_at_least_ten_beyond_and_is_the_highest_such(n):
    p = stats.tail_percentile(n)
    assert n - stats.rank(p, n) >= stats.MIN_BEYOND
    higher = [q for q in stats.PERCENTILE_GRID if q > p]
    assert all(n - stats.rank(q, n) < stats.MIN_BEYOND for q in higher)
    values = list(range(n))
    value, beyond = stats.tail(values, p)
    assert beyond == sum(v > value for v in values)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_nearest_rank_percentile():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 100) == 5
    assert stats.percentile(list(range(1, 101)), 90) == 90


def test_self_time_subtracts_children_once_and_clips_to_the_parent():
    spans = [
        (0, 100, -1),    # root
        (10, 30, 0),     # child with a grandchild
        (15, 25, 1),     # grandchild
        (20, 50, 0),     # overlaps the first child: [10, 50] is covered once
        (90, 120, 0),    # runs past the parent: only [90, 100] counts
    ]
    assert stats.self_times(spans) == [100 - 40 - 10, 20 - 10, 10, 30, 30]


def test_probe_scale_uses_the_median_of_the_nearest_probes():
    probe = calibration.SpeedProbe()
    probe.at = [0, 10, 20, 30, 40, 50, 60, 70]
    ref = calibration.REFERENCE_MS * 1e6
    probe.cost = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert probe.scale(5) == 1.0            # probes 0..40: median is the reference cost
    assert probe.scale(70) == 0.5           # probes 30..70: median is twice the reference
    assert calibration.NEIGHBOURS == 5


def _small(name: str, seed: int = 5, sessions: int = 3):
    workload = workloads.generate(name, seed)
    return replace(workload, sessions=workload.sessions[:sessions], questions=workload.questions[:sessions])


@pytest.mark.parametrize("name", workloads.SHAPES)
def test_generator_is_a_function_of_the_seed(name):
    assert workloads.generate(name, 3) == workloads.generate(name, 3)
    assert workloads.generate(name, 3).sessions != workloads.generate(name, 4).sessions


@pytest.mark.parametrize("name", workloads.SHAPES)
def test_false_gold_values_never_appear_in_session_text(name):
    workload = workloads.generate(name, 0)
    text = " ".join(u.text for s in workload.sessions for u in s.utterances)
    false_golds = {q.gold for qs in workload.questions for q in qs if not q.true}
    assert false_golds and not any(gold in text for gold in false_golds)


def test_digest_repeats_for_the_same_seed_and_tracing_leaves_outputs_alone():
    workload = _small("answer_heavy")
    first = run.run_pass(mlmem, workload, mlmem.dumps_state, calibration.SpeedProbe())
    again = run.run_pass(mlmem, _small("answer_heavy"), mlmem.dumps_state, calibration.SpeedProbe())
    assert first.failed == 0 and first.digest == again.digest
    assert run.run_pass(mlmem, _small("answer_heavy", seed=6), mlmem.dumps_state, calibration.SpeedProbe()).digest != first.digest

    original = mlmem.step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mlmem.step is not original and mlmem.engine.step is not original
        traced = run.run_pass(mlmem, workload, mlmem.dumps_state, calibration.SpeedProbe(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == first.digest
    assert mlmem.step is original and mlmem.engine.step is original


def test_traced_spans_nest_and_self_times_add_up_to_the_roots():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(mlmem, _small("chat_long"), mlmem.dumps_state, calibration.SpeedProbe(), tracer=tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.op == span.op
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    assert sum(stats.self_times([(s.start, s.end, s.parent) for s in spans])) == roots
    layers = tracer.aggregate()
    assert all(layers[f"{layer}.{name}.calls"] > 0 for layer, names in tracing.LAYERS.items() for name in names)


def test_tracer_refuses_a_missing_public_name(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "memory", tracing.LAYERS["memory"] + ("no_such_function",))
    tracer = tracing.Tracer()
    with pytest.raises(tracing.TraceError):
        tracer.install()
    tracer.uninstall()
