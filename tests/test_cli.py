"""CLI driver: exit codes, summary lines, report round-trips."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PointShiftedMap, flipped_form
from tangency import report as report_mod
from tangency.cli import main
from tangency.toy import ToyParams, build_toy_chain


def _walk_floats(obj, path=""):
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _walk_floats(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _walk_floats(v, f"{path}[{i}]")


class TestProve:
    def test_verified_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["prove", "henon", "--report", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "verdict: VERIFIED" in captured
        assert (
            "quadratic homoclinic tangency unfolding generically verified "
            "for a in 1.3145271093265 +- 1e-05, b = -0.3"
        ) in captured
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "VERIFIED"
        assert len(report["stages"]["covering"]) == 15
        assert len(report["stages"]["cones"]) == 15
        assert report["stages"]["stable_disk"]["passed"] is True
        assert report["conclusion"]["a_radius"] == 1e-5
        # the generated geometry ships with the certificate
        assert len(report["hsets"]) == 16
        assert len(report["forms"]) == 16
        h9 = report["hsets"][9]
        assert h9["unstable_axes"] == [0, 2]
        assert len(h9["matrix_columns"]) == 4

    def test_report_round_trips_bit_exactly(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["prove", "henon", "--report", str(out)]) == 0
        text = out.read_text()
        parsed = report_mod.loads(text)
        text2 = report_mod.dumps(parsed)
        parsed2 = report_mod.loads(text2)
        floats1 = dict(_walk_floats(parsed))
        floats2 = dict(_walk_floats(parsed2))
        assert floats1.keys() == floats2.keys()
        for key, val in floats1.items():
            assert floats2[key] == val, key  # bit-exact
        assert len(floats1) > 100

    def test_inflated_radius_inconclusive(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["prove", "henon", "--param-radius", "1e-3",
                     "--report", str(out)])
        captured = capsys.readouterr().out
        assert code == 1
        assert "INCONCLUSIVE at covering" in captured
        assert "N0=>N1" in captured
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["failure"]["stage"] == "covering"
        assert report["stages"] == {"covering": []}

        # Just outside the certified band the chain breaks at link 9: the
        # report keeps the nine links certified before it, with margins.
        code = main(["prove", "henon", "--param-radius", "1.1e-5",
                     "--report", str(out)])
        assert code == 1
        report = report_mod.loads(out.read_text())
        assert report["failure"]["locus"] == "N9=>N10"
        assert report["failure"]["detail"].startswith("exit failed on wall z_0=+1 ")
        covering = report["stages"]["covering"]
        assert [(c["source"], c["target"]) for c in covering] == [
            (f"N{i}", f"N{i + 1}") for i in range(9)
        ]
        for c in covering:
            assert min(c["exit_margins"].values()) > 0.0
            assert c["entry_margin"] > 0.0

    def test_disk_cone_failure_report(self, monkeypatch, tmp_path, capsys):
        # A stable disk form that fails its cone test ends the proof at the
        # cones stage, at the self-covering's link, after the chain's
        # coverings and cones.
        from tangency import henon

        disk_data = henon.projected_disk_data

        def flipped_stable(chain, side):
            ntilde, qtilde, param, p_coeff = disk_data(chain, side)
            if side == "stable":
                qtilde = flipped_form(qtilde)
            return ntilde, qtilde, param, p_coeff

        monkeypatch.setattr(henon, "projected_disk_data", flipped_stable)
        out = tmp_path / "report.json"
        assert main(["prove", "henon", "--report", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "INCONCLUSIVE at cones: Ntilde15=>Ntilde15")
        report = report_mod.loads(out.read_text())
        assert report["failure"]["stage"] == "cones"
        assert report["failure"]["locus"] == "Ntilde15=>Ntilde15"
        assert list(report["stages"]) == ["covering", "cones"]
        assert len(report["stages"]["cones"]) == 15

    def test_orbit_width_failure_report(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("tangency.henon.ORBIT_WIDTH_MAX", 1e-300)
        out = tmp_path / "report.json"
        assert main(["prove", "henon", "--report", str(out)]) == 1
        assert "INCONCLUSIVE at chain-build: orbit step 1" in capsys.readouterr().out
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["failure"]["stage"] == "chain-build"
        assert report["failure"]["locus"] == "orbit step 1"
        assert report["stages"] == {}

    @pytest.mark.parametrize(
        "argv, cfg",
        [
            (["--param-radius", "-1"], None),
            (["--threads", "2"], None),  # not a flag: argparse rejects it
            (["--config", "{cfg}"], {"threads": 2}),  # not a config key
            (["--config", "{cfg}"], {"grids": {"8": 2}}),  # not a config key
            (["--config", "{cfg}"], {"validate": 1}),  # a method, not a key
            # removed knobs: A is certified in one shot, Gamma's safety and
            # epsilon are constants
            (["--a-tol", "1e-9"], None),
            (["--gamma-safety", "0.9"], None),
            (["--config", "{cfg}"], {"a_tol": 1e-9}),
            (["--config", "{cfg}"], {"gamma_safety": 0.9}),
            (["--config", "{cfg}"], {"epsilon": 1e-6}),
            # malformed values
            (["--config", "{cfg}"], {"grid": "2"}),
            (["--config", "{cfg}"], {"grid": 1.5}),
            (["--config", "{cfg}"], {"grid": True}),
            (["--config", "{cfg}"], {"param_radius": "1e-5"}),
            (["--config", "{cfg}"], {"correspondences": [1]}),
            (["--config", "{cfg}"], {"correspondences": {"x": 1}}),
            (["--config", "{cfg}"], [{"grid": 1}]),
            # pairings that do not pair the unstable axes with signs +-1
            (["--config", "{cfg}"], {"correspondences": {"0": [[0, 0, 1]]}}),
            (["--config", "{cfg}"], {"correspondences": {"0": [[0, 0, 2], [3, 3, 1]]}}),
            (["--config", "{cfg}"], {"correspondences": {"0": [[7, 0, 1], [3, 3, 1]]}}),
            (["--config", "{cfg}"], {"correspondences": {"99": [[0, 0, 1], [3, 3, 1]]}}),
            # keys that int() reads but that do not spell their link: each
            # pairing is the one detected for that link, so only the key fails
            (["--config", "{cfg}"], {"correspondences": {"01": [[0, 0, 1], [3, 3, 1]]}}),
            (["--config", "{cfg}"], {"correspondences": {"+1": [[0, 0, 1], [3, 3, 1]]}}),
            (["--config", "{cfg}"], {"correspondences": {"1_0": [[0, 0, -1], [2, 2, 1]]}}),
        ],
        ids=["negative-radius", "threads-flag", "threads-config-key",
             "grids-config-key", "method-name-key", "a-tol-flag",
             "gamma-safety-flag", "a-tol-key", "gamma-safety-key", "epsilon-key",
             "grid-string", "grid-float", "grid-bool", "radius-string",
             "correspondences-list", "correspondences-bad-index",
             "top-level-array", "partial-pairing", "sign-two", "bad-axis",
             "link-out-of-range", "leading-zero", "plus-sign", "underscore"],
    )
    def test_bad_config_exits_two(self, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        if cfg is not None:
            path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exc:
            main(["prove", "henon"] + [a.format(cfg=path) for a in argv])
        assert exc.value.code == 2

    def test_unknown_family_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "lorenz"])
        assert exc.value.code == 2

    def test_config_file_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 2}))
        out = tmp_path / "report.json"
        code = main(["prove", "henon", "--config", str(cfg),
                     "--report", str(out)])
        assert code == 0
        report = report_mod.loads(out.read_text())
        assert report["config"] == {"param_radius": 1e-5, "grid": 2}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"does_not_exist": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["prove", "henon", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_stdout_report_when_no_path(self, capsys):
        code = main(["prove", "henon"])
        captured = capsys.readouterr().out
        assert code == 0
        assert '"verdict": "VERIFIED"' in captured
        # the report is one JSON document on the first line of stdout
        assert json.loads(captured.splitlines()[0])["verdict"] == "VERIFIED"


class TestNegativeNumbers:
    """A negative number in any spelling float() reads is an option's value
    on both subcommands, not an unknown option: "-4e-1" as "-0.4"."""

    @pytest.mark.parametrize(
        "spelling", ["-1e-5", "-1E+06", "-5e-1", "-.5", "-5.", "-1_0.5", "-inf",
                     "-Infinity", "-nan"])
    @pytest.mark.parametrize("argv, message", [
        (["prove", "henon", "--param-radius"], "param_radius must be a number in (0, 1e-2]"),
        (["check-toy", "--eps"], "eps in (0, 0.2) required"),
    ], ids=["prove", "check-toy"])
    def test_spelling_reaches_validation(self, capsys, spelling, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + [spelling])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_exponent_notation_gives_the_decimal_report(self, tmp_path):
        reports = []
        for argv in (["--lam", "-3e0", "--mu", "-4e-1"], ["--lam", "-3", "--mu", "-0.4"]):
            out = tmp_path / "toy.json"
            assert main(["check-toy", *argv, "--report", str(out)]) == 0
            report = report_mod.loads(out.read_text())
            report.pop("timings")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["config"]["mu"] == -0.4


class TestCheckToy:
    def test_verified_run(self, tmp_path, capsys):
        out = tmp_path / "toy.json"
        code = main(["check-toy", "--report", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "verdict: VERIFIED" in captured
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "VERIFIED"
        assert len(report["stages"]["covering"]) >= 2
        assert report["stages"]["switch_blocks"]["Q1"]["positive_definite"]
        assert report["stages"]["switch_blocks"]["Q2"]["positive_definite"]
        assert report["stages"]["transversality"]["det"] == [2.0, 2.0]
        assert "transversality certified" in captured
        assert report["flags"]

    def test_custom_params(self, tmp_path):
        out = tmp_path / "toy.json"
        code = main(["check-toy", "--lam", "3.0", "--mu", "0.25",
                     "--report", str(out)])
        assert code == 0

    def test_invalid_params_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check-toy", "--lam", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["--grid", "0"], ["--grid", "-2"], ["--lam", "nan"], ["--lam", "inf"],
         ["--lam", "-inf"], ["--mu", "nan"], ["--eps", "inf"],
         ["--lam", "1e300", "--mu", "1e-10"]],
        ids=["grid-zero", "grid-negative", "lam-nan", "lam-inf", "lam-minus-inf",
             "mu-nan", "eps-inf", "slope-coefficient-overflow"],
    )
    def test_bad_input_exits_two(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(["check-toy"] + argv)
        assert exc.value.code == 2

    def test_chain_built_once(self, monkeypatch, tmp_path):
        from tangency import toy

        calls = []

        def counting(params):
            calls.append(params)
            return build_toy_chain(params)

        monkeypatch.setattr(toy, "build_toy_chain", counting)
        assert main(["check-toy", "--report", str(tmp_path / "toy.json")]) == 0
        assert len(calls) == 1

    def test_enclosure_error_exits_three(self, monkeypatch, tmp_path, capsys):
        from tangency import toy

        def inconsistent(params):
            chain = build_toy_chain(params)
            bad = PointShiftedMap(chain.maps[0], 10.0 * max(chain.sets[1].diam))
            return dataclasses.replace(chain, maps=(bad,) + chain.maps[1:])

        monkeypatch.setattr(toy, "build_toy_chain", inconsistent)
        out = tmp_path / "toy.json"
        assert main(["check-toy", "--report", str(out)]) == 3
        err = capsys.readouterr().err
        assert "enclosure inconsistency at covering: N0=>N1" in err
        assert not out.exists()


class TestCheckToyInconclusive:
    """An INCONCLUSIVE check-toy report keeps every certificate found before
    the failing link, as the prove report does."""

    def test_failed_middle_covering_keeps_earlier_links(self, monkeypatch, tmp_path):
        from tangency import toy
        from tangency.toy import linear_start_map

        def broken(params):
            chain = build_toy_chain(params)
            maps = list(chain.maps)
            maps[2] = linear_start_map(ToyParams(lam=1.01))  # N2 no longer covers N3
            return dataclasses.replace(chain, maps=tuple(maps))

        monkeypatch.setattr(toy, "build_toy_chain", broken)
        out = tmp_path / "toy.json"
        assert main(["check-toy", "--report", str(out)]) == 1
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["failure"]["stage"] == "covering"
        assert report["failure"]["locus"] == "N2=>N3"
        assert [(c["source"], c["target"]) for c in report["stages"]["covering"]] == [
            ("N0", "N1"), ("N1", "N2")
        ]
        assert set(report["stages"]) == {"covering"}

    def test_failed_middle_cone_keeps_earlier_cones(self, monkeypatch, tmp_path):
        from tangency import toy
        from tangency.covering import VerificationInconclusive

        check_cone_link = toy.check_cone_link

        def failing_at_n2(covering, q_src, q_tgt):
            if covering.source == "N2":
                raise VerificationInconclusive("cones", "N2=>N3", "forced failure")
            return check_cone_link(covering, q_src, q_tgt)

        monkeypatch.setattr(toy, "check_cone_link", failing_at_n2)
        out = tmp_path / "toy.json"
        assert main(["check-toy", "--report", str(out)]) == 1
        report = report_mod.loads(out.read_text())
        assert report["failure"] == {
            "stage": "cones", "locus": "N2=>N3", "detail": "forced failure"
        }
        n_links = len(build_toy_chain().sets) - 1
        assert len(report["stages"]["covering"]) == n_links
        assert [c["link"] for c in report["stages"]["cones_linear_links"]] == [
            "N0=>N1", "N1=>N2"
        ]
        assert "switch_blocks" not in report["stages"]

    def test_valid_arguments_end_inconclusive_at_chain_build(self, tmp_path, capsys):
        # No monkeypatch: at mu = 0.99 no chain end length up to its cap,
        # 200, brings |mu|^s below the last entry check's target, so the
        # chain is not built and no stage runs.
        out = tmp_path / "toy.json"
        assert main(["check-toy", "--mu", "0.99", "--report", str(out)]) == 1
        detail = ("at s = 200, |mu|^s = 0.13397967485796172 is not below the "
                  "entry target 0.001147500000000001")
        assert capsys.readouterr().out.splitlines() == [
            "INCONCLUSIVE at chain-build: chain end length", f"  {detail}"
        ]
        report = report_mod.loads(out.read_text())
        assert report["failure"] == {
            "stage": "chain-build", "locus": "chain end length", "detail": detail
        }
        assert report["stages"] == {}

    def test_inconclusive_prints_failure_detail(self, monkeypatch, tmp_path, capsys):
        from tangency import toy
        from tangency.covering import VerificationInconclusive

        def failing(covering, q_src, q_tgt):
            raise VerificationInconclusive("cones", "N0=>N1", "forced failure")

        monkeypatch.setattr(toy, "check_cone_link", failing)
        assert main(["check-toy", "--report", str(tmp_path / "toy.json")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "INCONCLUSIVE at cones: N0=>N1", "  forced failure"
        ]


class TestIntervalErrorInAStage:
    """An IntervalError raised inside a stage is that stage's INCONCLUSIVE
    verdict, with its usual locus and every stage certified before it in
    the report, and exit code 1, not a traceback."""

    @staticmethod
    def _raising(*args, **kwargs):
        from tangency.interval import IntervalError

        raise IntervalError("forced enclosure failure")

    def _failed_report(self, argv, tmp_path):
        out = tmp_path / "report.json"
        assert main(argv + ["--report", str(out)]) == 1
        report = report_mod.loads(out.read_text())
        assert report["verdict"] == "INCONCLUSIVE"
        assert report["failure"]["detail"] == "forced enclosure failure"
        return report

    def test_disk_constants(self, monkeypatch, tmp_path):
        from tangency import manifold

        monkeypatch.setattr(manifold, "mixed_derivative_bound", self._raising)
        report = self._failed_report(["prove", "henon"], tmp_path)
        assert (report["failure"]["stage"], report["failure"]["locus"]) == (
            "manifold", "stable disk in Ntilde15")
        assert list(report["stages"]) == ["covering", "cones"]
        assert len(report["stages"]["covering"]) == len(report["stages"]["cones"]) == 15

    def test_toy_switch_blocks(self, monkeypatch, tmp_path):
        from tangency import toy

        monkeypatch.setattr(toy, "switch_cone_blocks", self._raising)
        report = self._failed_report(["check-toy"], tmp_path)
        assert (report["failure"]["stage"], report["failure"]["locus"]) == (
            "toy-switch", "tangency-point cone blocks")
        assert list(report["stages"]) == ["covering", "cones_linear_links"]

    def test_toy_transversality(self, monkeypatch, tmp_path):
        from tangency import toy

        monkeypatch.setattr(toy, "switch_transversality", self._raising)
        report = self._failed_report(["check-toy"], tmp_path)
        assert (report["failure"]["stage"], report["failure"]["locus"]) == (
            "toy-transversality", f"N{toy.K}")
        assert list(report["stages"]) == ["covering", "cones_linear_links", "switch_blocks"]


class TestStageTimings:
    """A report times every stage that ran, on either verdict: an
    INCONCLUSIVE report keeps the times of the stages before the failure
    and of the failing stage itself."""

    TOY = ["build", "covering", "cones_linear_links", "switch_blocks", "transversality"]

    @staticmethod
    def _timings(argv, code, tmp_path):
        out = tmp_path / "report.json"
        assert main(argv + ["--report", str(out)]) == code
        timings = report_mod.loads(out.read_text())["timings"]
        assert all(seconds > 0.0 for seconds in timings.values())
        return list(timings)

    def test_prove(self, tmp_path):
        assert self._timings(["prove", "henon"], 0, tmp_path) == [
            "build", "covering", "cones", "disks", "total"]

    def test_prove_inconclusive_at_covering(self, tmp_path):
        argv = ["prove", "henon", "--param-radius", "1.1e-5"]
        assert self._timings(argv, 1, tmp_path) == ["build", "covering", "total"]

    def test_check_toy(self, tmp_path):
        assert self._timings(["check-toy"], 0, tmp_path) == self.TOY + ["total"]

    def test_check_toy_inconclusive_at_switch_blocks(self, monkeypatch, tmp_path):
        # N_k's form with gamma = 3 leaves Q2 not positive definite: the
        # run ends at toy-switch, before the transversality stage.
        from tangency import toy
        from tangency.hset import QuadraticForm

        chain = build_toy_chain()
        forms = list(chain.forms)
        forms[chain.k] = QuadraticForm((1.0, -3.0, -2.0, 0.25), (0, 3))
        monkeypatch.setattr(toy, "build_toy_chain", lambda params: dataclasses.replace(
            chain, forms=tuple(forms)))
        assert self._timings(["check-toy"], 1, tmp_path) == self.TOY[:4] + ["total"]


@pytest.mark.parametrize("command", [["prove", "henon"], ["check-toy"]],
                         ids=["prove", "check-toy"])
@pytest.mark.parametrize("grid", ["17", str(10**11)], ids=["17", "1e11"])
def test_grid_above_the_maximum_exits_two(monkeypatch, capsys, command, grid):
    # Refused before any sub-box table is built: the tables of grid 10**11
    # would never finish, and grid 17's would take minutes.
    from tangency import hset

    def no_table(grid):
        raise AssertionError(f"grid {grid} cut")

    monkeypatch.setattr(hset, "_cuts", no_table)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--grid", grid])
    assert exc.value.code == 2
    assert f"grid must be an int in 1..{hset.MAX_GRID}" in capsys.readouterr().err


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [["check-toy"], ["prove", "henon"]])
    def test_report_into_missing_directory_exits_two(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--report", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report {path}")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [(["check-toy"], 0), (["prove", "henon", "--param-radius", "1.1e-5"], 1)],
        ids=["verified", "inconclusive"],
    )
    def test_closed_stdout_keeps_verdict_code(self, argv, code):
        # The read end is closed before the child starts, so its first write
        # to stdout fails: no traceback, and the verdict's own exit code.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "tangency.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == code


class TestNoCyclicGarbage:
    """A CLI call leaves nothing that only the cyclic garbage collector can
    free: after one warm-up call, a second call with the collector off
    leaves no unreachable object behind."""

    @staticmethod
    def _call(argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    @pytest.mark.parametrize(
        "argv, code, raising",
        [(["prove", "henon"], 0, None),
         (["check-toy"], 0, None),
         (["check-toy", "--mu", "0.99"], 1, None),  # INCONCLUSIVE at chain-build
         (["prove", "henon", "--param-radius", "1.1e-5"], 1, None),  # at covering
         (["check-toy", "--mu", "2"], 2, None),
         # an IntervalError in a stage, as TestIntervalErrorInAStage forces it
         (["prove", "henon"], 1, ("manifold", "mixed_derivative_bound")),
         (["check-toy"], 1, ("toy", "switch_cone_blocks")),
         (["check-toy"], 1, ("toy", "switch_transversality"))],
        ids=["prove", "check-toy", "toy-chain-build", "prove-covering", "toy-usage",
             "disk-constants-interval-error", "toy-switch-interval-error",
             "toy-transversality-interval-error"],
    )
    def test_call_leaves_no_cycles(self, monkeypatch, tmp_path, capsys, argv, code, raising):
        if raising:
            module, name = raising
            monkeypatch.setattr(f"tangency.{module}.{name}", TestIntervalErrorInAStage._raising)
        argv = argv + ["--report", str(tmp_path / "report.json")]
        assert self._call(argv) == code
        gc.collect()
        gc.disable()
        try:
            assert self._call(argv) == code
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestReportFormat:
    def test_floats_are_json_numbers(self, tmp_path):
        out = tmp_path / "report.json"
        main(["prove", "henon", "--report", str(out)])
        raw = json.loads(out.read_text())
        first = raw["stages"]["covering"][0]["entry_margin"]
        assert isinstance(first, float)
        assert first > 0.0
        assert report_mod.loads(out.read_text()) == raw

    def test_float_round_trip(self):
        import random
        import struct

        rng = random.Random(3)
        xs = [rng.uniform(-1, 1) * 10 ** rng.randint(-300, 300) for _ in range(2000)]
        xs += [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
        back = report_mod.loads(report_mod.dumps({"xs": xs}))["xs"]
        assert [struct.pack("<d", x) for x in back] == [struct.pack("<d", x) for x in xs]

    def test_numeric_looking_strings_survive(self):
        doc = {"name": "1e5", "tags": ["0.5", "-3", ".25"], "n": 3, "x": 1e5}
        back = report_mod.loads(report_mod.dumps(doc))
        assert back == doc
        assert isinstance(back["name"], str)
        assert isinstance(back["n"], int)
        assert isinstance(back["x"], float)


def test_proof_paths_evaluate_no_elementary_function(monkeypatch, tmp_path):
    """The maps and the slope chart are rational: with the interval layer's
    point sin/cos routine and its kernels made to raise, the reference proof
    and the toy suite still verify."""
    from tangency import interval
    from tangency.henon import run_proof

    def forbidden(*args):
        raise AssertionError("the proof path evaluated an elementary function")

    for name in ("_sin_bounds", "_sin_kernel", "_cos_kernel"):
        monkeypatch.setattr(interval, name, forbidden)
    with pytest.raises(AssertionError):
        interval._sin_bounds(1.0, 0)
    cert = run_proof()  # raises unless the verdict is VERIFIED
    assert len(cert.coverings) == len(cert.cones) == 15
    assert main(["check-toy", "--report", str(tmp_path / "toy.json")]) == 0
