"""Command line front end.

Subcommands: ingest (JSONL sessions -> snapshot, holding one state at a
time), query (snapshot -> engine.answer + response; --top-j / --budget
override the snapshot's config), eval / ablate (synthetic scenarios -> metric
reports), sweep (grid tuner -> CSV), plotdata (report -> period,retention CSV).

Exit codes: 0 success, 2 validation error (a ValueError or OSError), 3 runtime
error (any other exception). All randomness derives from --scenario-seed and
embedder.seed. Each output file is written whole or not at all: a temp file
beside it, renamed over it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .engine import POLICIES, EngineConfig, TemplateResponder, answer, initial_state, steps
from .harness import Scenario, ablate, evaluate, generate_scenario, objective_handle
from .retention import grid_csv, tune
from .retrieval import make_query
from .snapshot import (
    dumps_state,
    loads_config,
    loads_report,
    loads_state,
    read_sessions_jsonl,
    report_to_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _load_config(path: str | None) -> EngineConfig:
    if path is None:
        return EngineConfig()
    with open(path, "r", encoding="utf-8") as handle:
        return loads_config(handle.read())


def _load_scenario(args: argparse.Namespace) -> tuple[Scenario, EngineConfig]:
    cfg = _load_config(args.config)
    return generate_scenario(args.personas, args.periods, args.facts, args.distractors, args.scenario_seed), cfg


def _write_text(path: str, text: str) -> None:
    """Write text to a temp file beside path, then rename it over path: a failure leaves path as it was."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def _write_json(path: str, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    sessions = read_sessions_jsonl(args.input)
    state = initial_state(cfg)
    for output in steps(sessions, None, cfg):
        state = output.state
    _write_text(args.snapshot, dumps_state(state, cfg))
    print(f"ingested {len(sessions)} sessions -> {args.snapshot}")
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    with open(args.snapshot, "r", encoding="utf-8") as handle:
        state, cfg = loads_state(handle.read())
    cfg = replace(
        cfg,
        top_j=cfg.top_j if args.top_j is None else args.top_j,
        token_budget=cfg.token_budget if args.budget is None else args.budget,
    )
    query = make_query(args.text, cfg.embedder, max(state.session_cursor, 0))
    retrieval, fused = answer(query, state, cfg)
    response = TemplateResponder().generate(fused, query)
    result = {
        "weights": asdict(retrieval.weights),
        "items": [
            {
                "layer": item.layer,
                "text": item.text,
                "score": item.score,
                "similarity": item.similarity,
                "session_index": item.session_index,
            }
            for item in retrieval.items
        ],
        "token_cost": retrieval.token_cost,
        "entropy": fused.entropy,
        "context_text": fused.context_text,
        "response": response,
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    scenario, cfg = _load_scenario(args)
    report = evaluate(scenario, cfg, args.policy)
    _write_json(args.out, report_to_dict(report))
    print(
        f"policy={args.policy} success_rate={report.success_rate:.4f} "
        f"fmr={report.fmr:.4f} context={report.mean_context_usage:.4f}"
    )
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    scenario, cfg = _load_scenario(args)
    reports = ablate(scenario, cfg)
    _write_json(args.out, {name: report_to_dict(report) for name, report in reports.items()})
    max_gap = max(reports["full"].retention_at) if reports["full"].retention_at else 0
    for name, report in reports.items():
        value = report.retention_at.get(max_gap, 0.0)
        print(f"{name}: retention_at[{max_gap}]={value:.4f} fmr={report.fmr:.4f}")
    return EXIT_OK


def _parse_floats(raw: str, name: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--{name} must be a comma-separated float list, got {raw!r}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    result = tune(
        objective_handle(*_load_scenario(args)),
        _parse_floats(args.alphas, "alphas"),
        _parse_floats(args.betas, "betas"),
        _parse_floats(args.lambdas, "lambdas"),
    )
    _write_text(args.out, grid_csv(result))
    alpha, beta, lambda_ = result.best
    print(
        f"best alpha={alpha} beta={beta} lambda={lambda_} total={result.objective.total!r}"
    )
    return EXIT_OK


def _cmd_plotdata(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as handle:
        report = loads_report(handle.read())
    lines = ["period,retention"]
    for gap in sorted(report.retention_at):
        lines.append(f"{gap},{report.retention_at[gap]!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(report.retention_at)} rows -> {args.out}")
    return EXIT_OK


def _add_scenario_args(parser: argparse.ArgumentParser, personas_default: int, periods_default: int) -> None:
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--personas", type=int, default=personas_default)
    parser.add_argument("--periods", type=int, default=periods_default)
    parser.add_argument("--facts", type=int, default=3)
    parser.add_argument("--distractors", type=int, default=6)
    parser.add_argument("--config", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlmem", description="Layered conversational memory engine")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="fold a JSONL session file into a state snapshot")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--snapshot", required=True)
    ingest.add_argument("--config", default=None)
    ingest.set_defaults(func=_cmd_ingest)

    query = sub.add_parser("query", help="gated retrieval against a snapshot")
    query.add_argument("--snapshot", required=True)
    query.add_argument("--text", required=True)
    query.add_argument("--top-j", type=int, default=None, dest="top_j")
    query.add_argument("--budget", type=int, default=None)
    query.set_defaults(func=_cmd_query)

    eval_cmd = sub.add_parser("eval", help="score a synthetic scenario under one policy")
    _add_scenario_args(eval_cmd, personas_default=20, periods_default=8)
    eval_cmd.add_argument("--policy", choices=tuple(POLICIES), default="mlmf")
    eval_cmd.add_argument("--out", required=True)
    eval_cmd.set_defaults(func=_cmd_eval)

    ablate_cmd = sub.add_parser("ablate", help="run all single-mechanism-removed variants")
    _add_scenario_args(ablate_cmd, personas_default=20, periods_default=8)
    ablate_cmd.add_argument("--out", required=True)
    ablate_cmd.set_defaults(func=_cmd_ablate)

    sweep = sub.add_parser("sweep", help="grid search over (alpha, beta, lambda)")
    _add_scenario_args(sweep, personas_default=6, periods_default=4)
    sweep.add_argument("--alphas", required=True)
    sweep.add_argument("--betas", required=True)
    sweep.add_argument("--lambdas", required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    plotdata = sub.add_parser("plotdata", help="emit period,retention CSV from a report")
    plotdata.add_argument("--report", required=True)
    plotdata.add_argument("--out", required=True)
    plotdata.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
