"""Command-line front end: simulate, replay, report, slo, fit.

Exit codes are a stable contract for rollout scripting: 0 success,
1 runtime failure (e.g. empty input), 2 usage/config error, 3 SLO
escalation. Human-readable tables go to stdout; machine JSON goes to
``--out`` files.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import math
import sys
from dataclasses import asdict, fields, replace
from json.encoder import encode_basestring_ascii
from typing import List, Optional, TextIO, Tuple

from .config import SimConfig, SimResult, _from_doc, quantile_mode_rows
from .governor import MODE_ORDER, mode_shares, modes, reason_table
from .model import ModelParams, calibrate_lambda0, fit_logistic_two_point, trust_score
from .telemetry import (
    DEFAULT_WINDOW_CAPACITY,
    QUANTILES,
    SloConfig,
    SloStatus,
    TelemetryError,
    json_type,
    perceived_stream,
    read_columns,
    reject_non_finite,
    slo_alerts,
    slo_evaluate,
    slo_track,
    window_stats,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_SLO_ESCALATED = 3

_MODEL_FIELD_NAMES = tuple(f.name for f in fields(ModelParams))
_POLICY_ALIASES = {"static": "static_messaging"}


class UsageError(Exception):
    """Bad flags or bad configuration; maps to exit code 2."""


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} does not fit a float")
    return value


def _fitting_int(text: str) -> int:
    """``parse_int`` hook: an integer the model would turn into a float must fit one."""
    _finite_float(text)
    return int(text)


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(
                fh,
                parse_constant=reject_non_finite,
                parse_float=_finite_float,
                parse_int=_fitting_int,
            )
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path} must hold a JSON object, got {json_type(doc)}")
    return doc


def _load_config(path: Optional[str], **overrides) -> Tuple[SimConfig, SloConfig]:
    """The whole ``--config`` document, checked once, as the simulation config
    and the ``slo`` section; each non-``None`` override replaces a top-level
    simulation field."""
    doc = {} if path is None else _load_json(path, "config file")
    # Accept bare model-params documents by nesting them under "params".
    if "params" not in doc:
        loose = {k: doc.pop(k) for k in list(doc) if k in _MODEL_FIELD_NAMES}
        if loose:
            doc["params"] = loose
    try:
        slo_cfg = _from_doc(SloConfig, doc.pop("slo", {}), "slo")
        cfg = SimConfig.from_dict(doc)
        return replace(cfg, **{k: v for k, v in overrides.items() if v is not None}), slo_cfg
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _write_out(path: Optional[str], doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_lines(path: str) -> TextIO:
    """Open telemetry for streaming, line by line; use it in a ``with`` block.
    A leading byte order mark is dropped; bytes that are not UTF-8 become
    surrogates, which ``parse_event`` rejects per line. Lines end at ``\n``
    only, as in JSON Lines: a bare ``\r`` is JSON whitespace inside a line."""
    try:
        return open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="\n")
    except OSError as exc:
        raise UsageError(f"cannot read telemetry {path}: {exc}") from exc


def _columns(args: argparse.Namespace, *names: str) -> Tuple[list, ...]:
    """The ``--telemetry`` events' columns ``names``; ``ValueError`` (exit 1) when
    there are none."""
    with _read_lines(args.telemetry) as lines:
        columns = read_columns(lines, names, skip_bad=args.skip_bad)
    if not columns[0]:
        raise ValueError("no telemetry events")
    return columns


def _format_table(headers, rows) -> str:
    table = [tuple(str(c) for c in row) for row in [headers, *rows]]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(table):
        cells = [
            row[0].ljust(widths[0]),
            *(row[i].rjust(widths[i]) for i in range(1, len(row))),
        ]
        lines.append("  ".join(cells).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _format_shares(shares: dict) -> str:
    return " ".join(f"{mode}={share * 100:.1f}%" for mode, share in shares.items())


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import OUTCOME_MODEL, compare_policies, run_simulation  # loads NumPy

    cfg, _ = _load_config(args.config, sessions=args.sessions, seed=args.seed)
    if args.policy not in (None, "all"):
        kind = _POLICY_ALIASES.get(args.policy, args.policy)
        cfg = replace(cfg, policy=replace(cfg.policy, kind=kind))

    if args.policy == "all":
        results = compare_policies(cfg)
        rows = [
            (
                kind,
                f"{res.conversion_rate * 100:.1f}",
                f"{res.repeat_rate * 100:.1f}",
                f"{res.mean_trust:.3f}",
            )
            for kind, res in results.items()
        ]
        print(_format_table(("policy", "conversion (%)", "repeat (%)", "trust index"), rows))
        out_doc = {"policies": {kind: res.to_dict() for kind, res in results.items()}}
    else:
        result = run_simulation(cfg)
        quantiles = " ".join(f"{q}={getattr(result, f'latency_{q}'):.3f}s" for q in QUANTILES)
        print(
            f"policy={cfg.policy.kind} sessions={cfg.sessions} seed={cfg.seed}\n"
            f"conversion={result.conversion_rate * 100:.2f}% "
            f"abandonment={result.abandonment_rate * 100:.2f}% "
            f"repeat={result.repeat_rate * 100:.2f}% "
            f"trust={result.mean_trust:.4f}\n"
            f"modes: {_format_shares(result.mode_shares)}\n"
            f"latency {quantiles}"
        )
        out_doc = {"result": result.to_dict()}
    _write_out(args.out, {"config": cfg.to_dict(), **out_doc, "outcome_model": OUTCOME_MODEL})
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    cfg, _ = _load_config(args.config, window_capacity=args.window)
    params = cfg.params

    session_ids, latencies = _columns(args, "session_id", "latency_s")
    perceived = perceived_stream(latencies, cfg.window_capacity, params.k)
    codes, transitions = modes(perceived, params)
    if args.out:
        sink = open(args.out, "w", encoding="utf-8")
    else:
        sink = contextlib.nullcontext(sys.stdout)
    # Per mode code: its name and reason_for's limit and reasons, as strings.
    table = [
        (mode.value, limit, held.value, crossed.value)
        for mode, (limit, held, crossed) in zip(MODE_ORDER, reason_table(params))
    ]
    with sink as out:
        # Each record is json.dumps(sort_keys=True, separators=(",", ":")) of its
        # fields: keys in order, finite floats by repr, the id JSON-escaped.
        for session_id, lp, code in zip(session_ids, perceived.tolist(), codes.tolist()):
            mode, limit, held, crossed = table[code]
            out.write(
                f'{{"mode":"{mode}","perceived_latency_s":{lp!r},'
                f'"reason":"{crossed if lp > limit else held}",'
                f'"session_id":{encode_basestring_ascii(session_id)},'
                f'"trust":{trust_score(lp, params)!r}}}\n'
            )

    shares = _format_shares(mode_shares(codes))
    summary = f"events={len(perceived)} transitions={transitions} modes: {shares}"
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    cfg, slo_cfg = _load_config(args.config)

    behavior_lines = []
    if args.telemetry is not None:
        latencies, engaged = _columns(args, "latency_s", "engaged_60s")
        stats = window_stats(latencies)
        quantiles = {q: getattr(stats, f"{q}_s") for q in QUANTILES}
        repeat_rate = sum(engaged) / len(latencies)
        flag = "  [ALERT: below repeat floor]" if repeat_rate < slo_cfg.repeat_min else ""
        behavior_lines.append(f"repeat engagement: {repeat_rate * 100:.1f}%{flag}")
    else:
        sim_doc = _load_json(args.sim, "simulation output")
        if isinstance(sim_doc.get("policies"), dict):
            raise UsageError(
                f"{args.sim} is a policy comparison of {', '.join(sim_doc['policies'])}; "
                "report --sim reads the --out of a one-policy simulate run"
            )
        try:
            result = SimResult.from_dict(sim_doc.get("result", sim_doc))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad simulation output: {exc}") from exc
        quantiles = {q: getattr(result, f"latency_{q}") for q in QUANTILES}
        if result.conversion_rate < slo_cfg.conv_min:
            behavior_lines.append(
                f"conversion {result.conversion_rate * 100:.1f}% [ALERT: below floor]"
            )
        if result.repeat_rate < slo_cfg.repeat_min:
            behavior_lines.append(
                f"repeat engagement {result.repeat_rate * 100:.1f}% [ALERT: below floor]"
            )

    rows = quantile_mode_rows(quantiles, cfg.params, cfg.ctx)
    table_rows = [
        (r.statistic, f"{r.latency_s:.3f}", r.mode.value, f"{r.conversion * 100:.1f}")
        for r in rows
    ]
    print(_format_table(("statistic", "latency (s)", "mode", "model conversion (%)"), table_rows))
    for line in behavior_lines:
        print(line)

    _write_out(args.out, {"rows": [{**asdict(r), "mode": r.mode.value} for r in rows]})
    return EXIT_OK


def cmd_slo(args: argparse.Namespace) -> int:
    if args.window < 1:
        raise UsageError("--window must be >= 1")
    _, slo_cfg = _load_config(args.config)
    (latencies,) = _columns(args, "latency_s")

    status = SloStatus()
    windows = []
    escalations = []
    for index, start in enumerate(range(0, len(latencies), args.window)):
        stats = window_stats(latencies[start : start + args.window])
        breaches = slo_evaluate(stats, slo_cfg)
        alerts = slo_alerts(stats, slo_cfg)
        status = slo_track(status, breaches)
        if status.escalated:
            escalations.append(index)
        windows.append(
            {
                "index": index,
                **asdict(stats),
                "breaches": sorted(breaches),
                "alerts": sorted(alerts),
                "consecutive_breaches": status.consecutive_breaches,
                "escalated": status.escalated,
            }
        )
        quantiles = " ".join(f"{q}={getattr(stats, f'{q}_s'):.3f}" for q in QUANTILES)
        line = f"window {index}: n={stats.count} {quantiles} jitter={stats.std_s:.3f}"
        if breaches:
            line += f" breaches={','.join(sorted(breaches))}"
        if status.escalated:
            line += " ESCALATED"
        print(line)

    escalated_ever = bool(escalations)
    print(f"windows={len(windows)} escalated={'yes' if escalated_ever else 'no'}")
    _write_out(
        args.out,
        {
            "window_size": args.window,
            "windows": windows,
            "escalated": escalated_ever,
            "escalation_windows": escalations,
        },
    )
    return EXIT_SLO_ESCALATED if escalated_ever else EXIT_OK


def _parse_pair(text: str, what: str, form: str) -> Tuple[float, float]:
    """Two finite numbers written ``a:b``; ``what`` and ``form`` name them in the error."""
    try:
        first, second = text.split(":")
        return _finite_float(first), _finite_float(second)
    except ValueError as exc:
        raise UsageError(f"could not parse {what} {text!r}; expected {form}") from exc


def _parse_points(text: str):
    points = [_parse_pair(chunk, "point", "L:P") for chunk in text.split(",")]
    if len(points) != 2:
        raise UsageError(f"expected exactly two latency:probability points, got {len(points)}")
    return points


def cmd_fit(args: argparse.Namespace) -> int:
    if not args.points and not args.hazard_anchor:
        raise UsageError("nothing to fit: pass --points and/or --hazard-anchor")
    fitted = {}
    try:  # the model's ValueErrors; the parsers raise UsageError, which passes through
        if args.points:
            fitted["alpha"], fitted["beta"] = fit_logistic_two_point(*_parse_points(args.points))
        if args.hazard_anchor:
            latency, median = _parse_pair(args.hazard_anchor, "hazard anchor", "latency:median")
            fitted["lambda0"] = calibrate_lambda0(latency, median, args.gamma)
            fitted["gamma"] = args.gamma  # lambda0 holds only with the gamma it was fitted at
        ModelParams(**fitted)  # a fit the model's bounds reject could not be used as a --config
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_out(args.out, fitted)
    for name, value in fitted.items():
        print(f"{name}={value:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write machine-readable JSON here")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--config", help="JSON config: scenario, model params, slo targets")

    # allow_abbrev=False throughout: a flag's prefix is an error, not that flag.
    parser = argparse.ArgumentParser(
        prog="latgov",
        description="Latency governance: simulation, telemetry replay, SLO gating, calibration.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command")

    p_sim = sub.add_parser(
        "simulate", parents=[common], allow_abbrev=False, help="run the session simulator"
    )
    p_sim.add_argument("--seed", type=int, help=f"RNG seed (default {SimConfig.seed})")
    p_sim.add_argument(
        "--sessions", type=int, help=f"session count (default {SimConfig.sessions})"
    )
    p_sim.add_argument(
        "--policy",
        choices=("none", "static", "letw", "all"),
        help="governance policy, or 'all' for a three-way comparison "
        "(default: the config's policy.kind, else letw)",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_replay = sub.add_parser(
        "replay", parents=[common], allow_abbrev=False, help="replay telemetry through the governor"
    )
    p_replay.add_argument("--telemetry", required=True, help="JSONL telemetry input")
    p_replay.add_argument("--window", type=int, help="trust window, in events (default: "
                          f"the config's window_capacity, else {SimConfig.window_capacity})")
    p_replay.add_argument("--skip-bad", action="store_true", help="skip malformed lines")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser(
        "report", parents=[common], allow_abbrev=False, help="quantile/mode table"
    )
    source = p_report.add_mutually_exclusive_group(required=True)
    source.add_argument("--telemetry", help="JSONL telemetry input")
    source.add_argument("--sim", help="simulation output JSON")
    p_report.add_argument("--skip-bad", action="store_true")
    p_report.set_defaults(func=cmd_report)

    p_slo = sub.add_parser(
        "slo", parents=[common], allow_abbrev=False, help="windowed SLO check (exit 3 on escalation)"
    )
    p_slo.add_argument("--telemetry", required=True, help="JSONL telemetry input")
    p_slo.add_argument("--window", type=int, default=DEFAULT_WINDOW_CAPACITY, help="events per window")
    p_slo.add_argument("--skip-bad", action="store_true")
    p_slo.set_defaults(func=cmd_slo)

    p_fit = sub.add_parser(
        "fit", parents=[out], allow_abbrev=False, help="calibrate model coefficients"
    )
    p_fit.add_argument("--points", help="two conversion points as L1:P1,L2:P2")
    p_fit.add_argument("--hazard-anchor", help="abandonment anchor as latency:median")
    p_fit.add_argument(
        "--gamma",
        type=_finite_float,
        default=ModelParams.gamma,
        help=f"hazard slope for the anchor (default {ModelParams.gamma})",
    )
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # Freeze the heap at exit: the interpreter's exit-time collections walk the
    # ~20k objects NumPy and the run leave, for memory the OS reclaims anyway.
    # From main's return to process end, a 200k `simulate --policy all` took
    # 33 ms unfrozen and 9 ms frozen (2-core VM, Python 3.11.7, NumPy 2.4.6).
    # Registered here, not at import, so a library importer keeps its own exit;
    # unregistered first, so in-process callers of main register it once.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return int(args.func(args))
    except (UsageError, TelemetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
