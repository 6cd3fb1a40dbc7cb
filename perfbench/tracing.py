"""Spans around calls into each capcont layer, for the traced benchmark run.

The tracer wraps the layers' public functions from outside the package:
each wrapped function is replaced in every capcont module namespace that
holds it (``capcont.continuity.entropy_of_matrix`` and
``capcont.capopt.entropy_of_matrix`` alike), the two validated types get a
wrapped ``__init__``, and numpy's Hermitian eigensolvers count as
``linalg.eig``. Spans nest on one stack, so a span's self time is its
duration minus the time of the spans it caused. Everything aggregates in
memory; ``layer_metrics`` turns the totals into the per-layer metrics.

Functions that are called only from inside their own layer need no span:
their time is part of the caller's self time in that layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy


class _Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0  # entries from outside a span of the same key
        self.incl_s = 0.0  # duration of those outermost spans
        self.self_s = 0.0  # duration of every span minus its child spans


def _sdp_hook(counts, bound, result, dt):
    n_c = bound.arguments["d_a"] * bound.arguments["d_b"]
    counts["sdp.solve.s.nc_le24" if n_c <= 24 else "sdp.solve.s.nc_gt24"] += dt
    counts["sdp.iters"] += result.iterations
    counts["sdp.not_optimal"] += result.status != "optimal"


def _diamond_hook(counts, bound, result, dt):
    counts["distance.diamond.uncertified"] += not result.certified()


def _capopt_hook(counts, bound, result, dt):
    cap = bound.arguments.get("iters", bound.signature.parameters["iters"].default)
    counts["capopt.restarts"] += result.restarts
    counts["capopt.ascent_iters"] += sum(result.iterations)
    counts["capopt.capped"] += sum(1 for used in result.iterations if used >= cap)


def _reports_hook(counts, bound, result, dt):
    counts["continuity.reports"] += len(result)


# (module, function) -> (span key, hook run on the bound arguments and result)
SPANS = {
    ("capcont.cli", "main"): ("cli.main", None),
    ("capcont.cli", "parse_channel_spec"): ("cli.parse", None),
    ("capcont.continuity", "verify_fannes"): ("continuity", _reports_hook),
    ("capcont.continuity", "verify_af"): ("continuity", _reports_hook),
    ("capcont.continuity", "verify_output_entropy"): ("continuity", _reports_hook),
    ("capcont.continuity", "verify_capacity_differences"): ("continuity", _reports_hook),
    ("capcont.continuity", "discontinuity_demo"): ("continuity", None),
    ("capcont.capopt", "max_coherent_information"): ("capopt", _capopt_hook),
    ("capcont.capopt", "max_holevo"): ("capopt", _capopt_hook),
    ("capcont.capopt", "max_private"): ("capopt", _capopt_hook),
    ("capcont.capopt", "n_copy_coherent_information"): ("capopt", None),
    ("capcont.capopt", "n_copy_holevo"): ("capopt", None),
    ("capcont.capopt", "n_copy_private"): ("capopt", None),
    ("capcont.distance", "diamond_distance"): ("distance.diamond", None),
    ("capcont.distance", "diamond_norm"): ("distance.diamond", _diamond_hook),
    ("capcont.distance", "diamond_lower_probe"): ("distance.probe", None),
    ("capcont.distance", "probe_value"): ("distance.probe", None),
    ("capcont.distance", "bell_probe_value"): ("distance.probe", None),
    ("capcont.distance", "trace_distance"): ("distance.trace_distance", None),
    ("capcont.distance", "trace_distance_halved"): ("distance.trace_distance", None),
    ("capcont.sdp", "solve_diamond"): ("sdp.solve", _sdp_hook),
    ("capcont.entropic", "entropy_of_matrix"): ("entropic.entropy", None),
    ("capcont.entropic", "entropy_of_spectrum"): ("entropic.entropy", None),
    ("capcont.entropic", "von_neumann_entropy"): ("entropic.entropy", None),
    ("capcont.entropic", "binary_entropy"): ("entropic.entropy", None),
    ("capcont.entropic", "coherent_information"): ("entropic.info", None),
    ("capcont.entropic", "holevo_information"): ("entropic.info", None),
    ("capcont.entropic", "private_information"): ("entropic.info", None),
    ("capcont.entropic", "conditional_entropy"): ("entropic.info", None),
    ("capcont.entropic", "mutual_information"): ("entropic.info", None),
    ("capcont.channels", "apply"): ("channels.apply", None),
    ("capcont.channels", "apply_extended"): ("channels.apply", None),
    ("capcont.channels", "tensor_power"): ("channels.tensor_power", None),
    ("capcont.channels", "complementary"): ("channels.complementary", None),
    # Constructors and conversions the CLI calls, so that their time is
    # not counted as CLI self time.
    ("capcont.channels", "channel_from_dict"): ("channels.other", None),
    ("capcont.channels", "to_choi"): ("channels.other", None),
    ("capcont.channels", "from_choi"): ("channels.other", None),
    ("capcont.channels", "mix"): ("channels.other", None),
    ("capcont.channels", "identity"): ("channels.other", None),
    ("capcont.channels", "constant_channel"): ("channels.other", None),
    ("capcont.channels", "erasure"): ("channels.other", None),
    ("capcont.channels", "depolarizing"): ("channels.other", None),
    ("capcont.channels", "dephasing"): ("channels.other", None),
    ("capcont.channels", "truncated_classical_example"): ("channels.other", None),
    ("capcont.channels", "truncated_quantum_example"): ("channels.other", None),
    ("capcont.linalg", "partial_trace"): ("linalg.partial_trace", None),
    ("capcont.linalg", "partial_trace_matrix"): ("linalg.partial_trace", None),
    ("capcont.sampling", "rng_for"): ("sampling", None),
    ("capcont.sampling", "haar_state"): ("sampling", None),
    ("capcont.sampling", "random_density_matrix"): ("sampling", None),
    ("capcont.sampling", "random_unitary"): ("sampling", None),
    ("capcont.sampling", "random_channel"): ("sampling", None),
}
INIT_SPANS = {
    ("capcont.channels", "QuantumChannel"): "channels.channel_init",
    ("capcont.linalg", "DensityMatrix"): "linalg.density_matrix",
}
NUMPY_EIG = ("eigh", "eigvalsh")


class Tracer:
    """Span aggregator that patches capcont while installed."""

    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []  # per open span: [time of its children]
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn, hook=None):
        stats, counts, stack, depth = self.stats, self.counts, self._stack, self._depth
        sig = inspect.signature(fn) if hook is not None else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[key] -= 1
                st = stats[key]
                st.self_s += dt - frame[0]
                if depth[key] == 0:
                    st.calls += 1
                    st.incl_s += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(counts, sig.bind(*args, **kwargs), result, dt)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "capcont" or name.startswith("capcont."))]
        for (mod_name, attr), (key, hook) in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(key, original, hook)
            for mod in modules:
                for name in [n for n, v in vars(mod).items() if v is original]:
                    self._patch(mod, name, wrapped)
        for (mod_name, cls_name), key in INIT_SPANS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, "__init__", self.wrap(key, cls.__init__))
        for attr in NUMPY_EIG:
            self._patch(numpy.linalg, attr, self.wrap("linalg.eig", getattr(numpy.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


# name -> unit; values are per traced round unless the unit is a ratio or a rate
PER_LAYER_UNITS = {
    "sdp.solve.calls": "count",
    "sdp.solve.s": "s",
    "sdp.iters": "count",
    "sdp.ms_per_iter": "ms",
    "sdp.solve.s.nc_le24": "s",
    "sdp.solve.s.nc_gt24": "s",
    "sdp.not_optimal": "count",
    "distance.diamond.uncertified": "count",
    "distance.diamond.calls": "count",
    "distance.diamond.s": "s",
    "distance.probe.s": "s",
    "distance.trace_distance.calls": "count",
    "linalg.eig.calls": "count",
    "linalg.eig.s": "s",
    "linalg.density_matrix.calls": "count",
    "linalg.density_matrix.self_s": "s",
    "linalg.partial_trace.calls": "count",
    "linalg.partial_trace.s": "s",
    "channels.apply.calls": "count",
    "channels.apply.s": "s",
    "channels.channel_init.calls": "count",
    "channels.channel_init.s": "s",
    "channels.tensor_power.s": "s",
    "channels.complementary.calls": "count",
    "entropic.entropy.calls": "count",
    "entropic.entropy.self_s": "s",
    "entropic.info.calls": "count",
    "entropic.info.s": "s",
    "capopt.calls": "count",
    "capopt.self_s": "s",
    "capopt.restarts": "count",
    "capopt.ascent_iters": "count",
    "capopt.us_per_iter": "us",
    "capopt.capped_share": "ratio",
    "continuity.reports": "count",
    "continuity.self_s": "s",
    "continuity.self_us_per_report": "us",
    "sampling.calls": "count",
    "sampling.s": "s",
    "cli.parse.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, totals divided by the number of traced rounds."""
    s, c = tracer.stats, tracer.counts
    totals = {
        "sdp.solve.calls": s["sdp.solve"].calls,
        "sdp.solve.s": s["sdp.solve"].incl_s,
        "sdp.iters": c["sdp.iters"],
        "sdp.solve.s.nc_le24": c["sdp.solve.s.nc_le24"],
        "sdp.solve.s.nc_gt24": c["sdp.solve.s.nc_gt24"],
        "sdp.not_optimal": c["sdp.not_optimal"],
        "distance.diamond.uncertified": c["distance.diamond.uncertified"],
        "distance.diamond.calls": s["distance.diamond"].calls,
        "distance.diamond.s": s["distance.diamond"].incl_s,
        "distance.probe.s": s["distance.probe"].incl_s,
        "distance.trace_distance.calls": s["distance.trace_distance"].calls,
        "linalg.eig.calls": s["linalg.eig"].calls,
        "linalg.eig.s": s["linalg.eig"].incl_s,
        "linalg.density_matrix.calls": s["linalg.density_matrix"].calls,
        "linalg.density_matrix.self_s": s["linalg.density_matrix"].self_s,
        "linalg.partial_trace.calls": s["linalg.partial_trace"].calls,
        "linalg.partial_trace.s": s["linalg.partial_trace"].incl_s,
        "channels.apply.calls": s["channels.apply"].calls,
        "channels.apply.s": s["channels.apply"].incl_s,
        "channels.channel_init.calls": s["channels.channel_init"].calls,
        "channels.channel_init.s": s["channels.channel_init"].incl_s,
        "channels.tensor_power.s": s["channels.tensor_power"].incl_s,
        "channels.complementary.calls": s["channels.complementary"].calls,
        "entropic.entropy.calls": s["entropic.entropy"].calls,
        "entropic.entropy.self_s": s["entropic.entropy"].self_s,
        "entropic.info.calls": s["entropic.info"].calls,
        "entropic.info.s": s["entropic.info"].incl_s,
        "capopt.calls": s["capopt"].calls,
        "capopt.self_s": s["capopt"].self_s,
        "capopt.restarts": c["capopt.restarts"],
        "capopt.ascent_iters": c["capopt.ascent_iters"],
        "continuity.reports": c["continuity.reports"],
        "continuity.self_s": s["continuity"].self_s,
        "sampling.calls": s["sampling"].calls,
        "sampling.s": s["sampling"].incl_s,
        "cli.parse.s": s["cli.parse"].incl_s,
        "cli.self_s": s["cli.main"].self_s + s["cli.parse"].self_s,
    }
    out = {name: value / rounds for name, value in totals.items()}
    out["sdp.ms_per_iter"] = 1e3 * _ratio(s["sdp.solve"].incl_s, c["sdp.iters"])
    out["capopt.us_per_iter"] = 1e6 * _ratio(s["capopt"].incl_s, c["capopt.ascent_iters"])
    out["capopt.capped_share"] = _ratio(c["capopt.capped"], c["capopt.restarts"])
    out["continuity.self_us_per_report"] = 1e6 * _ratio(
        s["continuity"].self_s, c["continuity.reports"])
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER_UNITS}
