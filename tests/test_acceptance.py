"""Acceptance suite: one test per guaranteed behavior, at stated tolerances.

Each test prints a single PASS/FAIL line with its headline numbers (visible
with -s, or via the verbose test report, one line per behavior).  Failures
carry the first few offending instances.
"""

import json
import subprocess
import sys
import time

import numpy as np

from capcont.assisted import (
    MixingGeometry,
    colinear_rescale,
    continuity_delta,
    erasure_q2,
    erasure_qb_bounds,
)
from capcont.capopt import max_coherent_information, max_holevo
from capcont.channels import (
    ChoiMatrix,
    constant_channel,
    depolarizing,
    erasure,
    from_choi,
    identity,
    to_choi,
    truncated_classical_example,
)
from capcont.cli import main
from capcont.continuity import (
    af_bound,
    discontinuity_demo,
    hybrid_sequence,
    random_nearby_pair,
    verify_af,
    verify_capacity_differences,
    verify_fannes,
    verify_output_entropy,
)
from capcont.distance import (
    bell_probe_value,
    diamond_distance,
    diamond_lower_probe,
    diamond_norm,
)
from capcont.entropic import Ensemble, holevo_information
from capcont.sampling import haar_state, random_channel, rng_for

SEED = 0


def _finish(name: str, detail: str, problems: list[str]) -> None:
    status = "FAIL" if problems else "PASS"
    extra = f"  problems: {problems[:3]}" if problems else ""
    print(f"{status} {name}: {detail}{extra}")
    assert not problems, f"{name}: {problems[:5]}"


# The output-entropy and corollary checks share one set of measured pairs;
# built on first use so either test can run standalone.
_HARNESS: list[tuple] = []


def harness_pairs() -> list[tuple]:
    if not _HARNESS:
        for i in range(20):
            ch_n, ch_m = random_nearby_pair(2, 2, rng_for(SEED, i))
            res = diamond_distance(ch_n, ch_m)
            assert res.certified(), f"pair {i} not certified: {res.status}"
            _HARNESS.append((ch_n, ch_m, res.value))
    return _HARNESS


def test_1_entropy_continuity_suite():
    t0 = time.perf_counter()
    reports = verify_fannes(dims=(2, 4, 8), trials=1000, seed=SEED)
    elapsed = time.perf_counter() - t0
    problems = [
        f"{r.detail}: margin {r.margin:.3e}" for r in reports if r.margin < -1e-7
    ]
    problems += [f"eps {r.epsilon} above 1/2" for r in reports if r.epsilon > 0.5]
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(
        "entropy continuity (3000 pairs, d in {2,4,8})",
        f"min margin {min(r.margin for r in reports):.3e}, {elapsed:.1f}s",
        problems,
    )


def test_2_conditional_entropy_continuity_suite():
    reports = verify_af(trials=1000, seed=SEED)
    problems = [
        f"{r.detail}: margin {r.margin:.3e}" for r in reports if r.margin < -1e-7
    ]
    problems += [f"eps {r.epsilon} above 1/2" for r in reports if r.epsilon > 0.5]
    _finish(
        "conditional entropy continuity (9000 bipartite pairs, d_A,d_B <= 4)",
        f"min margin {min(r.margin for r in reports):.3e}",
        problems,
    )


def test_3_output_entropy_harness():
    t0 = time.perf_counter()
    problems = []
    worst = np.inf
    for i, (ch_n, ch_m, eps) in enumerate(harness_pairs()):
        for n in (1, 2):
            reports = verify_output_entropy(ch_n, ch_m, n, trials=50, seed=i, eps=eps)
            worst = min(worst, min(r.margin for r in reports))
            problems += [
                f"pair {i} n={n} {r.detail}: margin {r.margin:.3e}"
                for r in reports
                if r.margin < -1e-6
            ]
        phi = haar_state(16, rng_for(SEED, 100 + i), dims=(4, 2, 2))
        seq = hybrid_sequence(ch_n, ch_m, phi, 2)
        step_bound = af_bound(eps, 2)
        problems += [
            f"pair {i} step {k}: diff {d:.3e} above step bound {step_bound:.3e}"
            for k, d in enumerate(seq.step_differences)
            if d > step_bound + 1e-6
        ]
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 600s")
    _finish(
        "output entropy bound (20 qubit pairs, n in {1,2}, 50 inputs each)",
        f"worst margin {worst:.3e}, {elapsed:.1f}s",
        problems,
    )


def test_4_diamond_norm_correctness():
    problems = []
    # (a) self distance at machine precision, also through a re-expressed
    # Kraus family of the same map
    ch = random_channel(2, 3, rng_for(SEED, 40))
    for other, label in ((ch, "same object"), (from_choi(to_choi(ch)), "canonicalized")):
        v = diamond_distance(ch, other).value
        if v > 1e-8:
            problems.append(f"self distance ({label}) {v:.3e}")
    # (b) closed form 3p/2, with the entangled probe meeting the SDP value
    for p in (0.1, 0.3, 0.5):
        res = diamond_distance(identity(2), depolarizing(2, p))
        if abs(res.value - 1.5 * p) > 1e-6:
            problems.append(f"depolarizing p={p}: value {res.value:.9f}")
        probe = bell_probe_value(
            ChoiMatrix.difference(identity(2), depolarizing(2, p))
        )
        if abs(probe - 1.5 * p) > 1e-6 or probe > res.value + 1e-6:
            problems.append(f"depolarizing p={p}: bell probe {probe:.9f}")
    # (c) random probes never exceed the SDP value
    for i in range(50):
        rng = rng_for(SEED, 50 + i)
        a, b = random_channel(2, 2, rng), random_channel(2, 2, rng)
        choi = ChoiMatrix.difference(a, b)
        res = diamond_distance(a, b)
        probe = diamond_lower_probe(choi, trials=4, seed=i)
        if probe > res.value + 1e-6:
            problems.append(f"pair {i}: probe {probe:.9f} above value {res.value:.9f}")
    # (d) homogeneity
    base_choi = ChoiMatrix.difference(identity(2), depolarizing(2, 0.3))
    base = diamond_norm(base_choi).value
    for c in (0.25, 2.0):
        v = diamond_norm(base_choi.scaled(c)).value
        if abs(v - c * base) > 1e-6:
            problems.append(f"scale {c}: {v:.9f} vs {c * base:.9f}")
    _finish(
        "diamond norm (self, closed form, 50 probes, homogeneity)",
        f"identity-vs-depolarizing exact to 1e-6, probes below value",
        problems,
    )


def test_5_capacity_proxies():
    problems = []
    for p, tol in ((0.0, 1e-3), (0.1, 1e-3), (0.25, 1e-3), (0.5, 1e-6)):
        rep = max_coherent_information(erasure(2, p), restarts=4, iters=600, seed=SEED)
        target = max(1.0 - 2.0 * p, 0.0)
        if abs(rep.best_value - target) > tol:
            problems.append(f"erasure p={p}: {rep.best_value:.6f} vs {target}")
    rep = max_holevo(constant_channel(2), ensemble_size=2, restarts=2, iters=100, seed=SEED)
    if abs(rep.best_value) > 1e-9:
        problems.append(f"constant channel: {rep.best_value:.3e}")
    value = holevo_information(
        truncated_classical_example(8), Ensemble.uniform_basis(8)
    )
    if abs(value - 1.0) > 1e-9:
        problems.append(f"uniform codewords through truncation: {value:.12f}")
    _finish(
        "capacity proxies (erasure line, constant channel, codeword bit)",
        "coherent matches 1-2p, flat channels at zero, one surviving bit",
        problems,
    )


def test_6_capacity_difference_corollaries():
    problems = []
    worst = np.inf
    for i, (ch_n, ch_m, eps) in enumerate(harness_pairs()):
        reports = verify_capacity_differences(ch_n, ch_m, n=1, trials=10, seed=i, eps=eps)
        step = af_bound(eps, 2)
        for r in reports:
            if abs(r.bound - 2.0 * step) > 1e-12:
                problems.append(f"pair {i} {r.quantity_name}: bound {r.bound}")
        worst = min(worst, min(r.margin for r in reports))
        problems += [
            f"pair {i} {r.quantity_name} {r.detail}: margin {r.margin:.3e}"
            for r in reports
            if r.margin < -1e-6
        ]
    _finish(
        "capacity difference corollaries (20 pairs, 3 quantities, n=1)",
        f"worst margin {worst:.3e}",
        problems,
    )


def test_7_discontinuity_trend():
    rows = discontinuity_demo([2, 4, 8])
    problems = []
    for row in rows:
        n = row["n"]
        if row["diamond_eps"] > row["two_over_log_n"] + 1e-6:
            problems.append(f"n={n}: eps {row['diamond_eps']:.9f} above envelope")
        if abs(row["classical_lb"] - 1.0) > 1e-9:
            problems.append(f"n={n}: classical lb {row['classical_lb']:.12f}")
        for key in ("classical_lb", "quantum_lb"):
            if row[key] > row["corollary_bound"] + 1e-6:
                problems.append(
                    f"n={n}: {key} {row[key]:.6f} above bound {row['corollary_bound']:.6f}"
                )
    _finish(
        "discontinuity trend (n in {2,4,8})",
        "distance tracks 2/log n while one bit survives within the bound",
        problems,
    )


def test_8_assisted_arithmetic():
    problems = []
    rng = rng_for(SEED, 80)
    for i in range(10_000):
        p1 = float(rng.random())
        p2 = 0.5 * float(rng.random())
        big = 10.0 * float(rng.random()) + 1e-6
        small = float(rng.random()) * big
        if small == 0.0:
            continue
        geom = MixingGeometry(p1=p1, p2=p2, Delta=big, delta=small, log_d=1.0)
        q1, q2 = colinear_rescale(geom)
        if q2 > 2.0 * p2 * (small / big):
            problems.append(f"geometry {i}: q2 {q2} above 2 p2 delta/Delta")
    for eps in (1e-4, 0.01, 0.5, 1.9):
        log_d = 1.0
        delta = continuity_delta(eps, 1.0, log_d)
        geom = MixingGeometry(p1=0.5, p2=0.5, Delta=1.0, delta=delta, log_d=log_d)
        q1, q2 = colinear_rescale(geom)
        if min(q1, q2) * log_d > eps:
            problems.append(f"composition at eps={eps}: gap bound {min(q1, q2) * log_d}")
    for p in np.linspace(0.0, 1.0, 101):
        lo, hi = erasure_qb_bounds(float(p))
        if abs(erasure_q2(float(p)) - (1.0 - p)) > 1e-15 or lo > hi + 1e-15:
            problems.append(f"erasure grid p={p}")
    _finish(
        "assisted arithmetic (10^4 geometries, composition, erasure grid)",
        "rescaled weights bounded, gap within eps, brackets ordered",
        problems,
    )


def test_9_cli_determinism(capsys):
    problems = []
    in_process = [
        ["verify", "fannes", "--trials", "2", "--seed", "3", "--json"],
        ["verify", "af", "--trials", "2", "--seed", "3", "--json"],
        [
            "verify", "theorem3",
            "--channel-a", "identity:d=2", "--channel-b", "depolarizing:d=2,p=0.1",
            "--trials", "3", "--seed", "7", "--json",
        ],
        [
            "verify", "corollaries",
            "--channel-a", "identity:d=2", "--channel-b", "depolarizing:d=2,p=0.1",
            "--trials", "2", "--seed", "7", "--json",
        ],
        ["demo", "discontinuity", "--n-max", "4", "--json"],
        ["demo", "discontinuity", "--n-max", "4", "--csv"],
    ]
    for argv in in_process:
        outs = []
        for _ in range(2):
            code = main(argv)
            outs.append(capsys.readouterr().out)
            if code != 0:
                problems.append(f"{' '.join(argv)}: exit {code}")
        if outs[0] != outs[1]:
            problems.append(f"{' '.join(argv)}: reruns differ")
        if "--json" in argv:
            json.loads(outs[0])  # must also be valid JSON
    # one command through a fresh interpreter each time, to rule out any
    # in-process state making the reruns look more stable than they are
    cmd = [
        sys.executable, "-m", "capcont.cli",
        "verify", "theorem3",
        "--channel-a", "identity:d=2", "--channel-b", "identity:d=2",
        "--trials", "2", "--seed", "5", "--json",
    ]
    runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
    if runs[0].stdout != runs[1].stdout:
        problems.append("subprocess reruns differ")
    _finish(
        "cli determinism (verify and demo reruns)",
        "byte-identical JSON and CSV at fixed seeds",
        problems,
    )
