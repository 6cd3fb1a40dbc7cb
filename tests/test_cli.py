"""Tests for the command-line front end."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from capcont.channels import (
    channel_to_dict,
    erasure,
    identity,
    to_choi,
    truncated_classical_example,
)
from capcont import cli
from capcont.cli import (
    SpecError,
    _assert_finite,
    ensemble_from_dict,
    main,
    parse_channel_spec,
    state_from_dict,
)
from capcont.continuity import BoundReport
from capcont.entropic import TAU_ENT
from capcont.errors import NumericError


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_fresh(args, **kwargs):
    """Run a fresh interpreter that imports capcont from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, text=True, **kwargs)


class TestParseChannelSpec:
    def test_identity_spec(self):
        ch = parse_channel_spec("identity:d=2")
        assert (ch.d_in, ch.d_out) == (2, 2)
        assert len(ch.kraus) == 1
        assert np.allclose(ch.kraus[0], np.eye(2))

    def test_erasure_spec(self):
        ch = parse_channel_spec("erasure:d=2,p=0.25")
        ref = erasure(2, 0.25)
        assert np.allclose(to_choi(ch).matrix, to_choi(ref).matrix)

    def test_file_round_trip(self, tmp_path):
        # round-trip oracle: the parsed channel's Choi matrix matches the
        # Choi matrix of the channel that produced the file
        ch = truncated_classical_example(4)
        path = tmp_path / "trunc4.json"
        path.write_text(json.dumps(channel_to_dict(ch)))
        parsed = parse_channel_spec(str(path))
        assert np.max(np.abs(to_choi(parsed).matrix - to_choi(ch).matrix)) < 1e-8

    def test_unknown_name(self):
        with pytest.raises(SpecError) as exc:
            parse_channel_spec("teleporter:d=2")
        assert exc.value.code == "unknown-name"

    @pytest.mark.parametrize(
        "spec",
        [
            "erasure:d=2",  # missing parameter
            "erasure:d=2,p=0.25,p=0.3",  # duplicate
            "erasure:d=2,q=0.25",  # unknown key
            "erasure:d=two,p=0.25",  # unparsable value
            "erasure:d=2,p=1.5",  # out of the factory's domain
        ],
    )
    def test_bad_parameter(self, spec):
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(spec)
        assert exc.value.code == "bad-parameter"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(str(path))
        assert exc.value.code == "malformed-json"

    def test_missing_file(self):
        with pytest.raises(SpecError) as exc:
            parse_channel_spec("no/such/file.json")
        assert exc.value.code == "io"

    def test_non_trace_preserving_file(self, tmp_path):
        half = 0.5 * np.eye(2)
        data = {
            "d_in": 2,
            "d_out": 2,
            "kraus": [[[float(z.real), 0.0] for z in half.reshape(-1)]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(str(path))
        assert exc.value.code == "cptp-violation"

    def test_non_integer_dimensions_in_file(self, tmp_path, capsys):
        good = channel_to_dict(identity(2))
        trace = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # the 2 -> 1 trace map
        # JSON true is not a dimension, though operator.index(True) == 1.
        bools = ({"d_in": True, "d_out": True, "kraus": [[[1.0, 0.0]]]},
                 {"d_out": True, "kraus": trace})
        for bad in ({"d_in": 2.9}, {"d_out": "2"}, {"d_in": 2.0}) + bools:
            path = tmp_path / "dims.json"
            path.write_text(json.dumps({**good, **bad}))
            with pytest.raises(SpecError) as exc:
                parse_channel_spec(str(path))
            assert exc.value.code == "malformed-channel", bad
            argv = ["norm", "diamond", "--a", str(path), "--b", "identity:d=2"]
            assert main(argv) == 1
            assert "malformed-channel" in capsys.readouterr().err

    def test_structurally_bad_file(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"d_in": 2, "d_out": 2, "kraus": [[[1.0, 0.0]]]}))
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(str(path))
        assert exc.value.code == "malformed-channel"


class TestStateAndEnsembleFiles:
    def test_entropy_of_maximally_mixed(self, tmp_path, capsys):
        mat = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"matrix": mat}))
        code, report = run_json(capsys, ["entropy", "--state", str(path)])
        assert code == 0
        assert report["result"]["entropy"] == pytest.approx(1.0)

    def test_entropy_of_a_pure_state_prints_positive_zero(self, tmp_path, capsys):
        path = tmp_path / "pure.json"
        path.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
        assert main(["entropy", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entropy: 0.0" in out and "-0.0" not in out

    def test_info_coherent_identity(self, tmp_path, capsys):
        # identity leaves the maximally entangled probe pure with a
        # maximally mixed marginal, so the coherent information is 1
        bell = np.zeros((4, 4))
        bell[np.ix_([0, 3], [0, 3])] = 0.5
        mat = [[float(z), 0.0] for z in bell.reshape(-1)]
        path = tmp_path / "bell.json"
        path.write_text(json.dumps({"matrix": mat, "dims": [2, 2]}))
        code, report = run_json(
            capsys,
            [
                "info",
                "coherent",
                "--channel",
                "identity:d=2",
                "--input",
                str(path),
            ],
        )
        assert code == 0
        assert report["result"]["value"] == pytest.approx(1.0)

    def test_info_holevo_uniform_basis(self, tmp_path, capsys):
        ens = {
            "probabilities": [0.5, 0.5],
            "states": [
                {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
                {"matrix": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
            ],
        }
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ens))
        code, report = run_json(
            capsys,
            ["info", "holevo", "--channel", "identity:d=2", "--input", str(path)],
        )
        assert code == 0
        assert report["result"]["value"] == pytest.approx(1.0)

    def test_malformed_state(self, tmp_path, capsys):
        pure = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        bad_states = [
            {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},  # not square
            {"matrix": [[1.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]},  # ragged pair
            {"matrix": [[1.0, 0.0], ["x", 0.0], [0.0, 0.0], [0.0, 0.0]]},  # non-numeric
            {"matrix": [[1.0, 0.0], [None, 0.0], [0.0, 0.0], [0.0, 0.0]]},
            {"matrix": pure, "dims": ["x"]},  # non-integer dims
            {"matrix": pure, "dims": [None]},
            {"matrix": pure, "dims": [1.5, 1.5]},
            {"matrix": pure, "dims": 2},
            {"matrix": pure, "dims": [-1, -2]},  # product matches, factors do not
            {"matrix": [[1.0, 0.0]], "dims": [True]},  # a boolean, though int(True) == 1
            {"matrix": pure, "dims": [2, True]},
            {"matrix": pure, "dims": None},
            {"matrix": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},  # numeric strings
            {"matrix": [[True, False], [False, False], [False, False], [False, False]]},
            {"matrix": []},
        ]
        for data in bad_states:
            with pytest.raises(SpecError) as exc:
                state_from_dict(data)
            assert exc.value.code == "malformed-state", data
            path = tmp_path / "bad-state.json"
            path.write_text(json.dumps(data))
            assert main(["entropy", "--state", str(path)]) == 1
            assert "malformed-state" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_is_malformed(self, tmp_path, capsys, bad):
        zero = {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        one = {"matrix": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        path = tmp_path / "nan-ensemble.json"
        path.write_text(json.dumps({"probabilities": [bad, 1.0], "states": [zero, one]}))
        argv = ["info", "holevo", "--channel", "identity:d=2", "--input", str(path), "--json"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "malformed-ensemble" in captured.err
        assert captured.out == ""

    def test_malformed_ensemble(self, tmp_path, capsys):
        state = {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        bad_ensembles = [
            {"probabilities": [1.0], "states": []},
            {"probabilities": 1.0, "states": [state]},  # not a list
            {"probabilities": None, "states": [state]},
            {"probabilities": ["x"], "states": [state]},
            {"probabilities": [[1.0]], "states": [state]},
            {"probabilities": ["1.0"], "states": [state]},  # a numeric string
            {"probabilities": [True], "states": [state]},
            {"probabilities": [], "states": []},
        ]
        for data in bad_ensembles:
            with pytest.raises(SpecError) as exc:
                ensemble_from_dict(data)
            assert exc.value.code == "malformed-ensemble", data
            path = tmp_path / "bad-ensemble.json"
            path.write_text(json.dumps(data))
            argv = ["info", "holevo", "--channel", "identity:d=2", "--input", str(path)]
            assert main(argv) == 1
            assert "malformed-ensemble" in capsys.readouterr().err


class TestExitCodes:
    def test_verify_identical_pair_passes(self, capsys):
        code, report = run_json(
            capsys,
            [
                "verify",
                "theorem3",
                "--channel-a",
                "identity:d=2",
                "--channel-b",
                "identity:d=2",
                "--trials",
                "3",
            ],
        )
        assert code == 0
        assert report["result"]["violations"] == 0
        assert all(r["margin"] >= 0 for r in report["result"]["reports"])

    def test_malformed_channel_file_fails(self, tmp_path, capsys):
        head = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        cases = [("{not json", "malformed-json")] + [
            (json.dumps({"d_in": 2, "d_out": 2, "kraus": [head + [last]]}), "malformed-channel")
            # ragged pair, non-numeric entries, a numeric string
            for last in ([1.0], ["1", "x"], [None, 0.0], ["0", 0.0])
        ]
        path = tmp_path / "broken.json"
        for text, error_code in cases:
            path.write_text(text)
            code = main(
                ["norm", "diamond", "--a", str(path), "--b", "identity:d=2", "--json"]
            )
            err = capsys.readouterr().err
            assert code == 1
            assert error_code in err, text

    def test_violated_report_reaches_violation_exit(self, capsys, monkeypatch):
        # One hard report just past the library's slack: the CLI prints the
        # report's own verdict and exits 2, without any bound being broken.
        def broken_harness(**kwargs):
            return [BoundReport("entropy-difference", 1.0 + 2 * TAU_ENT, 1.0, 0.1, 1, 2)]

        # A first call builds the parser, so the rebinding below is checked
        # against the parser that later calls reuse, whatever ran before.
        assert main(["verify", "fannes", "--trials", "1"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "verify_fannes", broken_harness)
        code, report = run_json(capsys, ["verify", "fannes"])
        assert code == 2
        assert report["result"]["violations"] == 1
        assert report["result"]["reports"][0]["violated"] is True

    @pytest.mark.parametrize("flag", ["--tol-ent", "--tol-dist"])
    def test_tolerance_flags_are_gone(self, capsys, flag):
        # The library fixes both tolerances; neither can be loosened per run.
        code = main(["verify", "fannes", "--trials", "2", flag, "1e9"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error (usage)" in captured.err
        assert captured.out == ""

    def test_oversized_channel_is_a_bad_parameter(self, capsys):
        argv = ["norm", "diamond", "--a", "erasure:d=100,p=0.5", "--b", "erasure:d=100,p=0.4"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "bad-parameter" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["theorem3", "corollaries"])
    def test_huge_copy_count_is_refused(self, capsys, command):
        pair = ["--channel-a", "identity:d=2", "--channel-b", "identity:d=2"]
        code = main(["verify", command, "--n", "1000000", "--trials", "1"] + pair)
        captured = capsys.readouterr()
        assert code == 1
        assert "exceeds D_MAX" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["theorem3", "corollaries"])
    def test_pair_further_apart_than_one_is_refused(self, capsys, command):
        # ||id - const||_diamond = 2, beyond the bounds' domain [0, 1]
        pair = ["--channel-a", "identity:d=2", "--channel-b", "constant:d=2"]
        code = main(["verify", command, "--trials", "1"] + pair)
        captured = capsys.readouterr()
        assert code == 1
        assert "certified diamond distance 2.0" in captured.err
        assert "is above 1" in captured.err
        assert captured.out == ""

    def test_mismatched_pair_fails(self, capsys):
        code = main(["norm", "diamond", "--a", "identity:d=2", "--b", "identity:d=3"])
        captured = capsys.readouterr()
        assert code == 1
        assert "matching dimensions" in captured.err
        assert captured.out == ""

    def test_unknown_flag_is_operational_error(self, capsys):
        code = main(["assisted", "erasure", "--p", "0.1", "--bogus"])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage" in err

    @pytest.mark.parametrize("command, count", [("theorem3", 50), ("corollaries", 30)])
    def test_verify_takes_its_defaults_from_the_library(self, capsys, command, count):
        pair = ["--channel-a", "identity:d=2", "--channel-b", "depolarizing:d=2,p=0.1"]
        code, report = run_json(capsys, ["verify", command] + pair)
        assert code == 0
        assert report["result"]["count"] == count
        assert {r["n"] for r in report["result"]["reports"]} == {1}

    def test_missing_channels_for_theorem3(self, capsys):
        code = main(["verify", "theorem3", "--json"])
        err = capsys.readouterr().err
        assert code == 1
        assert "channel-a" in err

    @pytest.mark.parametrize("check", ["fannes", "af", "theorem3", "corollaries"])
    def test_nonpositive_trials_rejected(self, check, capsys):
        pair = ["--channel-a", "identity:d=2", "--channel-b", "depolarizing:d=2,p=0.1"]
        pair = pair if check in ("theorem3", "corollaries") else []
        for trials in ("0", "-3"):
            code = main(["verify", check, "--trials", trials, "--json"] + pair)
            captured = capsys.readouterr()
            assert code == 1
            assert "bad-argument" in captured.err
            assert captured.out == ""

    def test_negative_probe_trials_rejected(self, capsys):
        argv = ["norm", "diamond", "--a", "identity:d=2", "--b", "depolarizing:d=2,p=0.1"]
        code = main(argv + ["--probe-trials", "-3", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad-argument" in captured.err
        assert captured.out == ""
        code, report = run_json(capsys, argv + ["--probe-trials", "0"])
        assert code == 0
        assert "probe_lower_bound" not in report["result"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "fannes", "--trials", "2", "--seed", "-1"],
            ["capacity", "coherent", "--channel", "dephasing:p=0.2", "--seed", "-3"],
            [
                "norm", "diamond", "--a", "identity:d=2", "--b", "depolarizing:d=2,p=0.1",
                "--probe-trials", "2", "--seed", "-1",
            ],
        ],
    )
    def test_negative_seed_rejected(self, argv):
        # A fresh interpreter, so that an uncaught exception shows as a traceback.
        run = subprocess.run(
            [sys.executable, "-m", "capcont.cli"] + argv, capture_output=True, text=True
        )
        assert run.returncode == 1
        assert run.stderr.startswith("capcont: error (bad-argument)")
        assert "Traceback" not in run.stderr
        assert run.stdout == ""

    def test_closed_stdout_exits_quietly(self):
        # The reader has gone before the first write, as `| head -1` is once
        # it has its line, so every write meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = run_fresh(
                ["-m", "capcont.cli", "verify", "fannes", "--trials", "200", "--json"],
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert run.stderr == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "fannes", "--n", "5"],
            ["verify", "af", "--optimized"],
            ["verify", "af", "--channel-a", "identity:d=2"],
            [
                "verify", "theorem3", "--channel-a", "identity:d=2",
                "--channel-b", "depolarizing:d=2,p=0.1", "--optimized",
            ],
            ["capacity", "coherent", "--channel", "dephasing:p=0.2", "--ensemble-size", "3"],
            ["capacity", "private", "--channel", "dephasing:p=0.2", "--ensemble-size", "3"],
            ["norm", "diamond", "--a", "identity:d=2", "--b", "depolarizing:d=2,p=0.1", "--csv"],
            ["verify", "fannes", "--trials", "1", "--csv"],
            ["verify", "--json", "fannes", "--trials", "1"],
        ],
        ids=[
            "fannes-n", "af-optimized", "af-channel", "theorem3-optimized",
            "coherent-ensemble-size", "private-ensemble-size", "norm-csv", "fannes-csv",
            "shared-option-before-leaf",
        ],
    )
    def test_flags_the_leaf_does_not_read_are_refused(self, capsys, argv):
        # Refused while parsing, before any work, instead of being ignored.
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "error (usage)" in captured.err
        assert captured.out == ""


class TestReports:
    def test_envelope_fields(self, capsys):
        code, report = run_json(capsys, ["assisted", "erasure", "--p", "0.25"])
        assert code == 0
        assert report["schema"] == 1
        assert report["tool"] == "capcont"
        assert report["seed"] == 0
        assert set(report["tolerances"]) == {"entropy", "distance"}
        assert report["result"]["q2"] == 0.75

    def test_verify_rerun_is_byte_identical(self, capsys):
        argv = ["verify", "fannes", "--trials", "2", "--seed", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_demo_csv_columns(self, capsys):
        code = main(["demo", "discontinuity", "--n-max", "4", "--csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,diamond_eps,two_over_log_n,classical_lb,quantum_lb,corollary_bound"
        assert len(lines) == 4  # header + n in {2, 3, 4}

    def test_demo_rerun_is_byte_identical(self, capsys):
        argv = ["demo", "discontinuity", "--n-max", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_pretty_output_default(self, capsys):
        code = main(["assisted", "erasure", "--p", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "q2: 0.75" in out

    def test_nan_trapped_before_emission(self):
        with pytest.raises(NumericError):
            _assert_finite({"result": {"value": float("nan")}})

    @pytest.mark.parametrize("fmt", [["--json"], []])
    def test_nan_report_is_refused_with_its_path(self, capsys, monkeypatch, fmt):
        # The JSON encoder refuses the NaN itself; the error still names
        # where it is, as the walk of the text path does, and prints nothing.
        def nan_harness(**kwargs):
            return [BoundReport("entropy-difference", float("nan"), 1.0, 0.1, 1, 2)]

        monkeypatch.setattr(cli, "verify_fannes", nan_harness)
        code = main(["verify", "fannes"] + fmt)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "capcont: error: report: non-finite value at report.result.min_margin\n"
        )
        assert captured.out == ""


NORM = ["norm", "diamond", "--a", "identity:d=2", "--b", "depolarizing:d=2,p=0.1", "--json"]
THEOREM3 = [
    "verify", "theorem3",
    "--channel-a", "identity:d=2", "--channel-b", "depolarizing:d=2,p=0.1", "--json",
]


class TestParserReuse:
    """One parser serves every call in a process and carries nothing between calls."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_omitted_counts_take_the_library_defaults_after_given_ones(self, capsys):
        assert main(THEOREM3 + ["--n", "2", "--trials", "3"]) == 0
        given = json.loads(capsys.readouterr().out)
        assert given["result"]["count"] == 3
        assert main(THEOREM3) == 0
        omitted = capsys.readouterr().out
        assert json.loads(omitted)["result"]["count"] == 50
        fresh = run_fresh(["-m", "capcont.cli", *THEOREM3], capture_output=True)
        assert fresh.returncode == 0, fresh.stderr
        assert omitted == fresh.stdout

    def test_usage_error_in_between_changes_nothing(self, capsys):
        assert main(NORM) == 0
        first = capsys.readouterr().out
        assert main(["norm", "diamond", "--a", "identity:d=2"]) == 1
        captured = capsys.readouterr()
        assert "--b" in captured.err
        assert captured.out == ""
        assert main(NORM) == 0
        assert capsys.readouterr().out == first

    def test_channel_parser_rebound_after_the_first_call_is_used(self, capsys, monkeypatch):
        # The benchmark's tracer wraps parse_channel_spec by name.
        assert main(NORM) == 0
        first = capsys.readouterr().out
        seen = []

        def traced(text):
            seen.append(text)
            return parse_channel_spec(text)

        monkeypatch.setattr(cli, "parse_channel_spec", traced)
        assert main(NORM) == 0
        assert capsys.readouterr().out == first
        assert seen == ["identity:d=2", "depolarizing:d=2,p=0.1"]


class TestAssistedCli:
    def test_bounds_simulation_only(self, capsys):
        code, report = run_json(
            capsys, ["assisted", "bounds", "--q2n", "1", "--p1", "0.1"]
        )
        assert code == 0
        assert report["result"]["simulation_upper_bound"] == pytest.approx(1.0)
        assert "mutual_gap_bound" not in report["result"]

    def test_bounds_with_gap(self, capsys):
        code, report = run_json(
            capsys,
            [
                "assisted", "bounds",
                "--q2n", "0.5", "--q2m", "0.7",
                "--p1", "0.2", "--p2", "0.1",
            ],
        )
        assert code == 0
        assert report["result"]["mutual_gap_bound"] == pytest.approx(0.03)

    def test_shared_options_go_after_the_leaf(self, capsys):
        # Placed before the leaf's name, they used to be accepted and then
        # silently overwritten by the leaf's defaults.
        code = main(["assisted", "--json", "--seed", "4", "erasure", "--p", "0.25"])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage" in captured.err
        assert captured.out == ""
        code, report = run_json(capsys, ["assisted", "erasure", "--p", "0.25", "--seed", "4"])
        assert code == 0
        assert report["seed"] == 4

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--q2n", "nan"], "q2_n nan outside"),
            (["--q2n", "0.5", "--logd", "nan"], "log_d nan must be positive and finite"),
            (["--q2n", "5", "--logd", "1"], "q2_n 5.0 outside [0.0, 1.0]"),
            (["--q2n", "0.5", "--logd", "-3"], "log_d -3.0 must be positive and finite"),
        ],
    )
    def test_bounds_out_of_range_rejected(self, capsys, flags, message):
        # No capacity exceeds its ceiling log d, which is positive and finite.
        code = main(["assisted", "bounds", "--p1", "0.5"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""

    def test_p2_without_q2m_rejected(self, capsys):
        code = main(["assisted", "bounds", "--q2n", "0.5", "--p1", "0.2", "--p2", "0.1"])
        capsys.readouterr()
        assert code == 1


class TestCapacityCli:
    def test_coherent_erasure_half(self, capsys):
        code, report = run_json(
            capsys,
            [
                "capacity", "coherent",
                "--channel", "erasure:d=2,p=0.5",
                "--restarts", "1", "--iters", "50",
            ],
        )
        assert code == 0
        assert abs(report["result"]["per_copy_value"]) < 1e-6

    def test_stop_reasons_one_per_restart(self, capsys):
        code, report = run_json(
            capsys,
            [
                "capacity", "coherent",
                "--channel", "erasure:d=2,p=0.25",
                "--restarts", "3", "--iters", "2",
            ],
        )
        assert code == 0
        result = report["result"]
        assert len(result["stop_reasons"]) == len(result["iterations"]) == 3
        # 2 iterations are too few to reach the optimum from a random start
        # (L-BFGS takes 5 or 6 here)
        assert result["stop_reasons"] == ["iteration-cap"] * 3
        assert result["converged"] is False

    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_private_reports_the_coherent_ascent(self, capsys, seed):
        # Over pure-state ensembles the private proxy is the coherent one:
        # the same ascent, and a report without an ensemble size.
        argv = ["--channel", "erasure:d=2,p=0.25", "--restarts", "4", "--iters", "400",
                "--seed", seed]
        (code_p, priv), (code_c, coh) = (
            run_json(capsys, ["capacity", kind, *argv]) for kind in ("private", "coherent")
        )
        assert code_p == code_c == 0
        priv, coh = priv["result"], coh["result"]
        assert "ensemble_size" not in priv
        assert priv.pop("kind") == "private" and coh.pop("kind") == "coherent"
        assert priv == coh

    @pytest.mark.parametrize("size", ["0", "1", "-2"])
    def test_ensemble_size_below_two_rejected(self, capsys, size):
        # 0 is a size like any other, not a request for the default
        code = main(
            [
                "capacity", "holevo",
                "--channel", "dephasing:p=0.2",
                "--ensemble-size", size, "--restarts", "1", "--iters", "1",
            ]
        )
        assert code == 1
        assert f"ensemble_size {size} must be >= 2" in capsys.readouterr().err

    def test_default_ensemble_size_is_single_copy_input_squared(self, capsys):
        code, report = run_json(
            capsys,
            [
                "capacity", "holevo",
                "--channel", "dephasing:p=0.2", "--n", "2",
                "--restarts", "1", "--iters", "1",
            ],
        )
        assert code == 0
        assert report["result"]["ensemble_size"] == 4

    def test_oversized_ensemble_is_refused_before_drawing(self, capsys):
        argv = ["capacity", "holevo", "--channel", "identity:d=2", "--ensemble-size", "10000000"]
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert "exceed D_MAX" in captured.err
        assert captured.out == ""
        assert peak < 1 << 20
        assert time.perf_counter() - start < 1.0


# Commands that never solve an SDP, a generic pair that the fixed point
# certifies, then one that it hands over to the interior-point solver.
LAZY_SCIPY = """
import contextlib, io, sys
import capcont, capcont.cli
from capcont.continuity import random_nearby_pair
from capcont.distance import diamond_distance
from capcont.sampling import rng_for

with contextlib.redirect_stdout(io.StringIO()):
    assert capcont.cli.main(["verify", "fannes", "--trials", "10", "--json"]) == 0
    assert capcont.cli.main([
        "capacity", "coherent", "--channel", "erasure:d=2,p=0.25",
        "--restarts", "1", "--iters", "50", "--json",
    ]) == 0
assert "scipy" not in sys.modules, "scipy loaded before the first SDP solve"
sol = diamond_distance(*random_nearby_pair(6, 6, rng_for(1, 6, 0)))
assert sol.certified() and sol.iterations > 0, sol
assert "scipy" not in sys.modules, "scipy loaded by a fixed-point certificate"
sol = diamond_distance(*random_nearby_pair(3, 3, rng_for(1, 3, 8)))
assert sol.certified() and sol.iterations > 0, sol
assert "scipy.linalg" in sys.modules
"""


def test_scipy_loads_at_the_first_sdp_solve():
    # The in-process suite cannot see this: tests/test_sdp.py imports scipy.
    run = run_fresh(["-c", LAZY_SCIPY], capture_output=True)
    assert run.returncode == 0, run.stderr
