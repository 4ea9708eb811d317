"""mlmem benchmark: step, answer and checkpoint latency on seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chat_long --seed 1 --seconds 30 --trace 0

One process, one thread, one caller: sessions are stepped in index order and
each session's questions are answered against the new state before the next
session arrives. A pass runs the whole workload from the zero state; passes
repeat while another one fits in ``--seconds``. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass and
the tracing overhead. The last line of stdout is the result object; the line
before it carries host, input and output information that is not a metric.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os

# numpy links a multi-threaded BLAS; pin it before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import calibration
import stats
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 3
OVERRUN = 3
WARM_SESSIONS = 2
WARM_QUESTIONS = 8


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def import_engine():
    """Import mlmem from this checkout's ``src``, never from anywhere else."""
    package = SRC / "mlmem"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no engine sources at {package}")
    sys.path.insert(0, str(SRC))
    import mlmem

    if Path(mlmem.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported mlmem from {mlmem.__file__}, expected {package}")
    return mlmem


@dataclass
class PassResult:
    """Everything one pass measured and checked."""

    # kind -> (start, duration) in perf_counter ns, one per operation, in the order run
    timings: dict[str, list[tuple[int, int]]] = field(
        default_factory=lambda: {kind: [] for kind in ("step", "answer", "dump", "load")}
    )
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    true_hits: int = 0
    true_total: int = 0
    false_hits: int = 0
    false_total: int = 0
    snapshot_bytes: int = 0
    nodes: int = 0
    edges: int = 0
    digest: str = ""
    wall_s: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def scaled_ms(self, kind: str, probe) -> list[float]:
        """Each operation's duration at reference speed, in ms."""
        return [duration * probe.scale(start) / 1e6 for start, duration in self.timings[kind]]


def _answer_problems(retrieval, fused, cfg) -> list[str]:
    weights = retrieval.weights.as_tuple()
    problems = []
    if any(not 0.0 <= w <= 1.0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        problems.append(f"gate weights {weights} off the simplex")
    if retrieval.token_cost > cfg.token_budget:
        problems.append(f"token_cost {retrieval.token_cost} > budget {cfg.token_budget}")
    if fused.entropy > cfg.epsilon:
        problems.append(f"fused entropy {fused.entropy} > epsilon {cfg.epsilon}")
    return problems


def _step_problems(output, session, cfg) -> list[str]:
    state = output.state
    problems = _answer_problems(output.retrieval, output.fused, cfg)
    if state.session_cursor != session.index:
        problems.append(f"cursor {state.session_cursor} after session {session.index}")
    if len(state.semantic.nodes) > cfg.C_s:
        problems.append(f"{len(state.semantic.nodes)} nodes > C_s {cfg.C_s}")
    if len(state.episodic.log) > cfg.C_e:
        problems.append(f"{len(state.episodic.log)} log records > C_e {cfg.C_e}")
    if len(state.working.entries) > cfg.k or state.working.token_count() > cfg.C_w:
        problems.append("working memory over its window or token budget")
    if not 0.0 <= output.context_usage <= 1.0:
        problems.append(f"context_usage {output.context_usage} outside [0, 1]")
    return problems


def run_pass(mlmem, workload, check_dumps, probe, tracer=None, sessions=None, questions=None) -> PassResult:
    """Fold the workload's sessions, answering and checkpointing as they arrive.

    Only the engine calls sit between the clock reads; output checks, hit
    scoring, the digest and the speed probe run outside them.
    ``check_dumps`` is a ``dumps_state`` bound before any tracing, so checks
    add no spans.
    """
    result = PassResult()
    cfg = workload.cfg
    clock = time.perf_counter_ns
    digest = hashlib.sha256()
    responder = mlmem.TemplateResponder()
    state = mlmem.initial_state(cfg)
    history = 0
    chosen = workload.sessions[:sessions] if sessions is not None else workload.sessions
    op = 0
    timings = result.timings
    started = time.perf_counter()
    probe.probe()
    for position, session in enumerate(chosen):
        # The probe's allocations depend on the clock, so it runs only right
        # before the collector is emptied. From there every pass allocates
        # alike, and collections land in the same operations on every pass.
        probe.maybe()
        gc.collect()
        if tracer is not None:
            tracer.op = op
        op += 1
        result.attempted += 1
        try:
            query = mlmem.make_query(session.utterances[-1].text, cfg.embedder, session.index)
            t0 = clock()
            output = mlmem.step(state, session, query, cfg, responder, history_tokens=history)
            t1 = clock()
        except Exception as exc:  # a failed step ends the pass; it is counted, not raised
            result.fail(f"step {session.index}: {type(exc).__name__}: {exc}")
            break
        timings["step"].append((t0, t1 - t0))
        problems = _step_problems(output, session, cfg)
        if problems:
            result.fail(f"step {session.index}: {'; '.join(problems)}")
        state = output.state
        history += session.token_count()
        digest.update(
            f"{output.response}|{output.fused.entropy!r}|{output.retrieval.token_cost}|"
            f"{output.retrieval.weights.as_tuple()!r}|{output.drift.total!r}|{output.context_usage!r}\n".encode()
        )

        asked = workload.questions[session.index]
        for question in asked[:questions] if questions is not None else asked:
            if tracer is not None:
                tracer.op = op
            op += 1
            result.attempted += 1
            try:
                t0 = clock()
                query = mlmem.make_query(question.text, cfg.embedder, session.index)
                retrieval = mlmem.retrieve(query, state, cfg.beta, cfg.top_j, cfg.token_budget)
                fused = mlmem.fuse(query, retrieval, cfg.mix, cfg.epsilon)
                t1 = clock()
            except Exception as exc:
                result.fail(f"answer {question.text!r} at {session.index}: {type(exc).__name__}: {exc}")
                continue
            timings["answer"].append((t0, t1 - t0))
            problems = _answer_problems(retrieval, fused, cfg)
            if problems:
                result.fail(f"answer {question.text!r} at {session.index}: {'; '.join(problems)}")
            current = state.semantic.current_value(question.subject, question.attribute)
            hit = question.gold in fused.context_text or (current is not None and question.gold in current)
            if question.true:
                result.true_total += 1
                result.true_hits += hit
            else:
                result.false_total += 1
                result.false_hits += hit
            digest.update(f"{fused.context_text}|{fused.entropy!r}|{hit}\n".encode())

        if (position + 1) % workload.checkpoint_every == 0 or position == len(chosen) - 1:
            probe.maybe()
            gc.collect()
            if tracer is not None:
                tracer.op = op
            op += 1
            result.attempted += 1
            try:
                t0 = clock()
                text = mlmem.dumps_state(state, cfg)
                t1 = clock()
                loaded, loaded_cfg = mlmem.loads_state(text)
                t2 = clock()
            except Exception as exc:
                result.fail(f"checkpoint {session.index}: {type(exc).__name__}: {exc}")
                continue
            timings["dump"].append((t0, t1 - t0))
            timings["load"].append((t1, t2 - t1))
            if check_dumps(loaded, loaded_cfg) != text or loaded.session_cursor != state.session_cursor:
                result.fail(f"checkpoint {session.index}: dumps(loads(dumps(s))) != dumps(s)")
            result.snapshot_bytes = len(text.encode("utf-8"))
            digest.update(text.encode("utf-8"))

    probe.probe()
    result.wall_s = time.perf_counter() - started
    result.nodes = len(state.semantic.nodes)
    result.edges = len(state.semantic.edges)
    result.digest = digest.hexdigest()[:16]
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per_operation(passes: list[PassResult], kind: str, probe) -> list[float]:
    """Each operation's median over the passes, at reference speed, in ms.

    Every pass replays the same operations on the same states, so one
    operation's repeats differ only by disturbance, which the median drops
    as long as it hits fewer than half of them.
    """
    return [statistics.median(r) for r in zip(*(p.scaled_ms(kind, probe) for p in passes))]


def end_to_end(passes: list[PassResult], probe, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and, beside them, the tail rule's percentile and operation counts."""
    first = passes[0]
    metrics = {}
    notes = {}
    for op in ("step", "answer"):
        samples = _per_operation(passes, op, probe)
        p = stats.tail_percentile(len(samples))
        value, beyond = stats.tail(samples, p)
        metrics[f"{op}_ms_p50"] = _metric(statistics.median(samples), "ms")
        metrics[f"{op}_ms_tail"] = _metric(value, "ms")
        metrics[f"{op}s_per_s"] = _metric(1e3 / statistics.fmean(samples), "1/s")
        raw = [d / 1e6 for p_ in passes for _, d in p_.timings[op]]
        notes[f"{op}_ms_tail"] = {"percentile": p, "operations": len(samples), "beyond": beyond}
        notes[f"{op}_ms_p50_unscaled"] = statistics.median(raw)
    metrics["snapshot_dump_ms"] = _metric(statistics.median(_per_operation(passes, "dump", probe)), "ms")
    metrics["snapshot_load_ms"] = _metric(statistics.median(_per_operation(passes, "load", probe)), "ms")
    metrics["snapshot_kb"] = _metric(first.snapshot_bytes / 1e3, "kB")
    metrics["setup_s"] = _metric(setup_s, "s")
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    metrics["retention"] = _metric(first.true_hits / first.true_total, "ratio")
    metrics["specificity"] = _metric(1.0 - first.false_hits / first.false_total, "ratio")
    return metrics, notes


def _host(probe) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "probe_ms": {
            "reference": calibration.REFERENCE_MS,
            "median": statistics.median(probe.cost) / 1e6,
            "min": min(probe.cost) / 1e6,
            "max": max(probe.cost) / 1e6,
            "probes": len(probe.cost),
        },
    }


def _consistent(passes: list[PassResult]) -> list[str]:
    """Passes replay identical inputs from the zero state, so their outputs must agree."""
    first = passes[0]
    return [
        f"pass {i} digest {p.digest} != {first.digest}"
        for i, p in enumerate(passes[1:], start=1)
        if p.digest != first.digest
    ]


def measure(mlmem, workload, seconds: float, check_dumps, probe) -> list[PassResult]:
    """Untraced passes while another one fits in ``seconds``.

    At least MIN_PASSES, unless the passes already took OVERRUN times
    ``seconds``: a much slower engine must still finish within the run limit.
    """
    passes: list[PassResult] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(run_pass(mlmem, workload, check_dumps, probe))
        elapsed = time.perf_counter() - started
        if elapsed > OVERRUN * seconds:
            return passes
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes


def _op_ms(result: PassResult, probe) -> float:
    return sum(sum(result.scaled_ms(kind, probe)) for kind in result.timings)


def measure_traced(mlmem, workload, seconds: float, check_dumps, probe) -> tuple[list[PassResult], list[dict], float]:
    """Pairs of untraced and traced passes while another pair fits.

    Returns every pass, the per-layer totals of each traced pass, and the
    overhead: time in operations when traced over time in the same operations
    untraced, both at reference speed.
    """
    tracer = tracing.Tracer()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    started = time.perf_counter()
    while True:
        gc.collect()
        plain.append(run_pass(mlmem, workload, check_dumps, probe))
        tracer.reset()
        tracer.install()
        try:
            gc.collect()
            traced.append(run_pass(mlmem, workload, check_dumps, probe, tracer=tracer))
        finally:
            tracer.uninstall()
        layers.append(tracer.aggregate(probe.scale))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(plain) > seconds:
            break
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{workload.name}-{workload.seed}.jsonl"))
    overhead = sum(_op_ms(p, probe) for p in traced) / sum(_op_ms(p, probe) for p in plain)
    return plain + traced, layers, overhead


def per_layer(layers: list[dict], overhead: float) -> tuple[dict, list[str]]:
    """Median of each per-pass layer figure; counts must repeat exactly from pass to pass."""
    problems = []
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        timed = name.endswith(".self_ms")
        if not timed and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        unit = "ms" if timed else "ratio" if name.endswith("_ratio") else "bytes" if name.endswith(".bytes") else "count"
        metrics[name] = _metric(statistics.median(values), unit)
    metrics["trace.overhead"] = _metric(overhead, "ratio")
    return metrics, problems


def main(argv=None) -> int:
    try:
        mlmem = import_engine()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    check_dumps = mlmem.dumps_state
    imported_s = time.perf_counter() - _PROCESS_T0
    probe = calibration.SpeedProbe()
    probe.probe()
    probe.probe()
    # Set-up is repeated and its median reported, so one slow repeat does not move setup_s.
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.generate(args.workload, args.seed)
        run_pass(mlmem, workload, check_dumps, probe, sessions=WARM_SESSIONS, questions=WARM_QUESTIONS)
        setups.append(time.perf_counter() - t0)
    setup_scale = calibration.REFERENCE_MS * 1e6 / statistics.median(probe.cost)
    setup_s = (imported_s + statistics.median(setups)) * setup_scale
    gc.collect()
    gc.freeze()

    if args.trace:
        try:
            passes, layers, overhead = measure_traced(mlmem, workload, args.seconds, check_dumps, probe)
        except tracing.TraceError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        metrics, problems = per_layer(layers, overhead)
        silent = [name for name, m in metrics.items() if name.endswith(".calls") and m["value"] == 0]
        if silent:
            print(f"perfbench: layers recorded no calls on {workload.name}: {silent}", file=sys.stderr)
            return 3
        notes = {}
    else:
        passes = measure(mlmem, workload, args.seconds, check_dumps, probe)
        metrics, notes = end_to_end(passes, probe, setup_s)
        problems = []

    problems += _consistent(passes) + [p for r in passes for p in r.problems]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0]
    inputs = workloads.input_properties(workload)
    inputs.update(final_nodes=first.nodes, final_edges=first.edges)
    info = {
        "workload": workload.name,
        "seed": workload.seed,
        "passes": len(passes),
        "measured_s": sum(p.wall_s for p in passes),
        "digest": first.digest,
        "fmr": first.false_hits / max(1, first.false_total),
        "failed_frac": failed / attempted,
        "notes": notes,
        "inputs": inputs,
        "host": _host(probe),
        "problems": problems[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
