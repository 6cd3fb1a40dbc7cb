"""Command-line front end.

Subcommands map one-to-one onto the library: norm (diamond distance),
entropy and info (single evaluations), capacity (maximized proxies),
verify (bound harnesses), demo (trend tables), assisted (mixing
arithmetic).  Channels are given either as "name:key=val,..." specs or as
paths to JSON files {"d_in", "d_out", "kraus"} with row-major [re, im]
pairs per operator; states and ensembles come from JSON files documented
on their loaders.

Each leaf command takes only the flags it reads, the shared --seed and
--json after its name (`verify fannes --json`); any other flag is a usage
error.  A verify count left out takes the library's default.  The
parser is built once per process, at the first `main` call, and reused:
each handler is bound when the parser is built, so rebinding a `_cmd_*`
function afterwards is not seen, while the library functions the
handlers call are looked up on this module at each call.

Reports carry a versioned envelope (schema, tool version, seed,
tolerances) and are emitted as deterministic JSON (sorted keys, no
timestamps), plain text, or CSV for the trend table (`demo
discontinuity --csv`).  Identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 operational error, 2 at least one
bound violation.  The library decides every verdict with fixed
tolerances, entropy TAU_ENT = 1e-7 and distance TAU_SDP = 1e-6, both
printed in every envelope; this module only parses, calls, serializes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from . import __version__
from .assisted import (
    erasure_q2,
    erasure_qb_bounds,
    mutual_gap_bound,
    simulation_upper_bound,
)
from .capopt import (
    ITERS,
    RESTARTS,
    n_copy_coherent_information,
    n_copy_holevo,
    n_copy_private,
)
from .channels import (
    ChoiMatrix,
    QuantumChannel,
    channel_from_dict,
    constant_channel,
    dephasing,
    depolarizing,
    erasure,
    identity,
    truncated_classical_example,
    truncated_quantum_example,
)
from .continuity import (
    BoundReport,
    discontinuity_demo,
    verify_af,
    verify_capacity_differences,
    verify_fannes,
    verify_output_entropy,
)
from .distance import TAU_SDP, diamond_lower_probe, diamond_norm
from .entropic import (
    TAU_ENT,
    Ensemble,
    coherent_information,
    holevo_information,
    private_information,
    von_neumann_entropy,
)
from .errors import (
    ArgumentError,
    CapcontError,
    CPViolationError,
    DimensionError,
    NumericError,
    TPViolationError,
)
from .linalg import DensityMatrix, as_dims, as_pairs

EXIT_OK = 0
EXIT_ERROR = 1       # operational failure: bad input, solver failure, I/O
EXIT_VIOLATION = 2   # a verified bound was violated beyond tolerance


class SpecError(CapcontError):
    """Input that the CLI cannot turn into a run, with a stable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors surface as SpecError, not SystemExit."""

    def error(self, message):
        raise SpecError("usage", message)


# ---------------------------------------------------------------------------
# input parsing

_CHANNEL_FACTORIES = {
    "identity": (identity, {"d": int}),
    "constant": (constant_channel, {"d": int}),
    "erasure": (erasure, {"d": int, "p": float}),
    "depolarizing": (depolarizing, {"d": int, "p": float}),
    "dephasing": (dephasing, {"p": float}),
    "truncated-classical": (truncated_classical_example, {"n": int}),
    "truncated-quantum": (truncated_quantum_example, {"n": int}),
}


def parse_channel_spec(text: str) -> QuantumChannel:
    """Channel from "name:key=val,..." or from a channel JSON file.

    Error codes: unknown-name, bad-parameter, malformed-json,
    malformed-channel, cptp-violation.
    """
    name, sep, params = text.partition(":")
    if sep and name in _CHANNEL_FACTORIES:
        factory, schema = _CHANNEL_FACTORIES[name]
        kwargs = {}
        for item in params.split(","):
            key, eq, raw = item.partition("=")
            if not eq or key not in schema or key in kwargs:
                raise SpecError(
                    "bad-parameter", f"cannot parse {item!r} for channel {name!r}"
                )
            try:
                kwargs[key] = schema[key](raw)
            except ValueError as exc:
                raise SpecError("bad-parameter", f"{key}={raw!r}: {exc}") from exc
        if set(kwargs) != set(schema):
            missing = sorted(set(schema) - set(kwargs))
            raise SpecError("bad-parameter", f"channel {name!r} needs {missing}")
        try:
            return factory(**kwargs)
        except (ArgumentError, DimensionError) as exc:
            raise SpecError("bad-parameter", str(exc)) from exc
    if sep and not Path(text).is_file():
        raise SpecError("unknown-name", f"unknown channel name {name!r}")
    data = _load_json(text)
    try:
        return channel_from_dict(data)
    except (TPViolationError, CPViolationError) as exc:
        raise SpecError("cptp-violation", str(exc)) from exc
    except (ArgumentError, DimensionError) as exc:
        raise SpecError("malformed-channel", str(exc)) from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError("io", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError("malformed-json", f"{path!r}: {exc}") from exc


def state_from_dict(data: dict) -> DensityMatrix:
    """State from {"matrix": [[re, im], ...] row-major, "dims": [...]?}."""
    if not isinstance(data, dict) or "matrix" not in data:
        raise SpecError("malformed-state", 'state file needs a "matrix" entry')
    try:
        flat = as_pairs(data["matrix"], "matrix", 2)
        d = math.isqrt(flat.size)
        if d * d != flat.size:
            raise SpecError("malformed-state", f"matrix length {flat.size} is not square")
        # Read here, since DensityMatrix takes dims=None for one factor.
        return DensityMatrix(flat.reshape(d, d), as_dims(data.get("dims", (d,)), d))
    except (ArgumentError, DimensionError) as exc:
        raise SpecError("malformed-state", str(exc)) from exc


def ensemble_from_dict(data: dict) -> Ensemble:
    """Ensemble from {"probabilities": [...], "states": [state dict, ...]}."""
    if not isinstance(data, dict) or "probabilities" not in data or "states" not in data:
        raise SpecError(
            "malformed-ensemble",
            'ensemble file needs "probabilities" and "states" entries',
        )
    probs = data["probabilities"]
    states = data["states"]
    if not isinstance(probs, list) or not isinstance(states, list) or len(probs) != len(states):
        raise SpecError(
            "malformed-ensemble", "probabilities and states must be lists of equal length"
        )
    try:
        return Ensemble([(p, state_from_dict(s)) for p, s in zip(probs, states)])
    except (ArgumentError, DimensionError) as exc:
        raise SpecError("malformed-ensemble", str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, result dict)

def _cmd_norm(args) -> tuple[int, dict]:
    if args.probe_trials < 0:
        raise SpecError(
            "bad-argument", f"--probe-trials must be at least 0, got {args.probe_trials}"
        )
    a = parse_channel_spec(args.a)
    b = parse_channel_spec(args.b)
    choi = ChoiMatrix.difference(a, b)
    res = diamond_norm(choi)
    result = {
        "metric": "diamond",
        "value": res.value,
        "lower_bound": res.dual_value,
        "iterations": res.iterations,
        "status": res.status,
        "rel_gap": res.rel_gap,
        "certified": res.certified(),
    }
    if args.probe_trials > 0:
        result["probe_lower_bound"] = diamond_lower_probe(
            choi, args.probe_trials, args.seed
        )
    return EXIT_OK, result


def _cmd_entropy(args) -> tuple[int, dict]:
    state = state_from_dict(_load_json(args.state))
    return EXIT_OK, {"entropy": von_neumann_entropy(state), "dims": list(state.dims)}


def _cmd_info(args) -> tuple[int, dict]:
    ch = parse_channel_spec(args.channel)
    data = _load_json(args.input)
    if args.kind == "coherent":
        value = coherent_information(ch, state_from_dict(data))
    elif args.kind == "holevo":
        value = holevo_information(ch, ensemble_from_dict(data))
    else:
        value = private_information(ch, ensemble_from_dict(data))
    return EXIT_OK, {"kind": args.kind, "value": value}


def _cmd_capacity(args) -> tuple[int, dict]:
    ch = parse_channel_spec(args.channel)
    result = {"kind": args.kind, "n": args.n}
    counts = {"restarts": args.restarts, "iters": args.iters, "seed": args.seed}
    if args.kind == "holevo":
        size = ch.d_in**2 if args.ensemble_size is None else args.ensemble_size
        rep = n_copy_holevo(ch, args.n, size, **counts)
        result["ensemble_size"] = size
    else:
        runner = n_copy_private if args.kind == "private" else n_copy_coherent_information
        rep = runner(ch, args.n, **counts)
    result.update(
        per_copy_value=rep.best_value,
        restarts=rep.restarts,
        iterations=list(rep.iterations),
        stop_reasons=list(rep.stop_reasons),
        converged=rep.converged,
    )
    return EXIT_OK, result


def _report_row(r: BoundReport) -> dict:
    return {
        "quantity": r.quantity_name,
        "measured": r.measured,
        "bound": r.bound,
        "epsilon": r.epsilon,
        "n": r.n,
        "d": r.d_b,
        "margin": r.margin,
        "hard": r.hard,
        "violated": r.violated,
        "detail": r.detail,
    }


def _cmd_verify(args) -> tuple[int, dict]:
    # Built per call, unlike the parser, so that a verifier rebound on this
    # module after import (a wrapper that traces or replaces it) is the one
    # called.
    verifier = {
        "fannes": verify_fannes,
        "af": verify_af,
        "theorem3": verify_output_entropy,
        "corollaries": verify_capacity_differences,
    }[args.check]
    if getattr(args, "trials", 1) < 1:
        raise SpecError("bad-argument", f"--trials must be at least 1, got {args.trials}")
    pair = [
        parse_channel_spec(getattr(args, name))
        for name in ("channel_a", "channel_b") if hasattr(args, name)
    ]
    given = {
        name: getattr(args, name) for name in ("n", "trials", "optimized") if hasattr(args, name)
    }
    rows = [_report_row(r) for r in verifier(*pair, seed=args.seed, **given)]
    violations = sum(row["violated"] for row in rows)
    result = {
        "check": args.check,
        "count": len(rows),
        "violations": violations,
        "min_margin": min(row["margin"] for row in rows),
        "reports": rows,
    }
    return (EXIT_VIOLATION if violations else EXIT_OK), result


def _cmd_demo(args) -> tuple[int, dict]:
    if args.n_max < 2:
        raise SpecError("bad-argument", f"--n-max must be at least 2, got {args.n_max}")
    rows = discontinuity_demo(range(2, args.n_max + 1))
    return EXIT_OK, {"table": "discontinuity", "rows": rows}


def _cmd_assisted(args) -> tuple[int, dict]:
    if args.what == "erasure":
        lo, hi = erasure_qb_bounds(args.p)
        return EXIT_OK, {"p": args.p, "q2": erasure_q2(args.p), "qb_lower": lo, "qb_upper": hi}
    result = {
        "simulation_upper_bound": simulation_upper_bound(args.q2n, args.p1, args.logd)
    }
    if (args.p2 is None) != (args.q2m is None):
        raise SpecError("bad-argument", "--p2 and --q2m must be given together")
    if args.p2 is not None:
        result["mutual_gap_bound"] = mutual_gap_bound(
            args.q2n, args.q2m, args.p1, args.p2, args.logd
        )
    return EXIT_OK, result


# ---------------------------------------------------------------------------
# report assembly and emission

def _assert_finite(obj, path="report"):
    """NaN or infinity anywhere in a report is a bug, trapped before emission."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NumericError("report", f"non-finite value at {path}")
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _assert_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _assert_finite(v, f"{path}[{i}]")


def _envelope(args, result: dict) -> dict:
    return {
        "schema": 1,
        "tool": "capcont",
        "version": __version__,
        "command": args.command_name,
        "seed": args.seed,
        "tolerances": {"entropy": TAU_ENT, "distance": TAU_SDP},
        "result": result,
    }


def _pretty(obj, out, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                out.write(f"{pad}{k}:\n")
                _pretty(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _pretty(v, out, indent)
                out.write("\n")
            else:
                out.write(f"{pad}- {v}\n")
    else:
        out.write(f"{pad}{obj}\n")


def _emit(args, report: dict) -> None:
    # Nothing is printed from a report with a non-finite value. The JSON
    # encoder refuses one itself; only then is the report walked, to name it.
    if getattr(args, "csv", False):
        _assert_finite(report)
        rows = report["result"]["rows"]
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elif args.json:
        try:
            text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:
            _assert_finite(report)
            raise
        print(text)
    else:
        _assert_finite(report)
        _pretty(report, sys.stdout)


# ---------------------------------------------------------------------------
# argument surface

@functools.cache
def _build_parser() -> _Parser:
    # Built once per process, at the first `main` call, and reused: about 2 ms
    # and 21 parsers per build, and parse_args fills a new namespace each
    # call. The `_cmd_*` handlers are bound here, so rebinding one later is
    # not seen; the library functions they call are looked up per call.
    #
    # The shared options go on each leaf only: given to a parent of nested
    # leaves as well, the leaf's defaults would overwrite what was placed
    # before the leaf's name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="run seed, a non-negative integer")
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = _Parser(prog="capcont", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="version", version=f"capcont {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("norm", parents=[common], help="channel distance")
    p.add_argument("metric", choices=["diamond"])
    p.add_argument("--a", required=True, help="first channel spec or file")
    p.add_argument("--b", required=True, help="second channel spec or file")
    p.add_argument("--probe-trials", type=int, default=0)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("entropy", parents=[common], help="entropy of a state file")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("info", parents=[common], help="information quantity")
    p.add_argument("kind", choices=["coherent", "holevo", "private"])
    p.add_argument("--channel", required=True)
    p.add_argument(
        "--input",
        required=True,
        help="reference (x) input state file (coherent) or ensemble file",
    )
    p.set_defaults(func=_cmd_info)

    optimizer = argparse.ArgumentParser(add_help=False, parents=[common])
    optimizer.add_argument("--channel", required=True)
    optimizer.add_argument("--n", type=int, default=1, help="copy count")
    optimizer.add_argument("--restarts", type=int, default=RESTARTS)
    optimizer.add_argument("--iters", type=int, default=ITERS)
    p = sub.add_parser("capacity", help="maximized capacity proxy")
    p.set_defaults(func=_cmd_capacity)
    csub = p.add_subparsers(dest="kind", required=True, parser_class=_Parser)
    csub.add_parser("coherent", parents=[optimizer])
    csub.add_parser("holevo", parents=[optimizer]).add_argument(
        "--ensemble-size",
        type=int,
        default=None,
        help="default the single-copy d_in squared (4 for a qubit channel, at any --n)",
    )
    csub.add_parser("private", parents=[optimizer])

    # The verify counts default to SUPPRESS: only the ones the user gave
    # reach the library, which owns every default.
    trials = argparse.ArgumentParser(add_help=False, parents=[common])
    trials.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    pair = argparse.ArgumentParser(add_help=False, parents=[trials])
    pair.add_argument("--channel-a", required=True)
    pair.add_argument("--channel-b", required=True)
    pair.add_argument("--n", type=int, default=argparse.SUPPRESS, help="copy count")
    p = sub.add_parser("verify", help="bound verification harness")
    p.set_defaults(func=_cmd_verify)
    vsub = p.add_subparsers(dest="check", required=True, parser_class=_Parser)
    for check in ("fannes", "af"):
        vsub.add_parser(check, parents=[trials])
    vsub.add_parser("theorem3", parents=[pair])
    vsub.add_parser("corollaries", parents=[pair]).add_argument(
        "--optimized",
        action="store_true",
        default=argparse.SUPPRESS,
        help="also compare independently maximized proxies",
    )

    p = sub.add_parser("demo", parents=[common], help="trend tables")
    p.add_argument("what", choices=["discontinuity"])
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("assisted", help="assisted-capacity arithmetic")
    asub = p.add_subparsers(dest="what", required=True, parser_class=_Parser)
    pb = asub.add_parser("bounds", parents=[common])
    pb.add_argument("--q2n", type=float, required=True, help="two-way capacity of N")
    pb.add_argument("--p1", type=float, required=True, help="mixing weight toward N")
    pb.add_argument("--q2m", type=float, default=None, help="two-way capacity of M")
    pb.add_argument("--p2", type=float, default=None, help="mixing weight toward M")
    pb.add_argument("--logd", type=float, default=1.0, help="capacity ceiling log d")
    pb.set_defaults(func=_cmd_assisted)
    pe = asub.add_parser("erasure", parents=[common])
    pe.add_argument("--p", type=float, required=True, help="erasure probability")
    pe.set_defaults(func=_cmd_assisted)

    return parser


def _command_name(args) -> str:
    parts = [args.subcommand]
    for attr in ("metric", "kind", "check", "what"):
        if getattr(args, attr, None):
            parts.append(getattr(args, attr))
    return " ".join(parts)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.seed < 0:
            raise SpecError("bad-argument", f"--seed must be at least 0, got {args.seed}")
        args.command_name = _command_name(args)
        code, result = args.func(args)
        _emit(args, _envelope(args, result))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`capcont ... | head -1`). Point the
        # stdout descriptor at devnull so that the flush at exit raises
        # nothing, as the `signal` module docs recommend. An in-memory
        # stdout has no descriptor to point anywhere.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):
            return EXIT_ERROR
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_ERROR
    except SpecError as exc:
        print(f"capcont: error ({exc.code}): {exc}", file=sys.stderr)
        return EXIT_ERROR
    except CapcontError as exc:
        print(f"capcont: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
