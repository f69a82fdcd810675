"""The FPU rounding mode: blocks, platforms, and what a proof leaves behind.

The proofs run their rigorous stages under upward rounding and everything
else to nearest.  These tests check that every way out of a proof puts the
mode back, that no module is imported inside an upward block, that the
blocks do not change the chain search, and that a proof never takes the
kernels' per-call fallback.
"""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PointShiftedMap
from tangency import kernels
from tangency.cli import main
from tangency.covering import check_covering
from tangency.henon import build_chain, run_proof
from tangency.projective import ChartMap
from tangency.toy import ToyParams, build_toy_chain

SRC = Path(__file__).resolve().parents[1] / "src"


def _rounds_to_nearest():
    """Decimal strings made at run time parse as their literals do (0.3
    parses one ulp high under upward rounding), a probe sum rounds to
    nearest, and fegetround says so."""
    one, three = "".join(["0", ".", "1"]), "".join(["0", ".", "3"])
    return (float(one) == 0.1 and float(three) == 0.3
            and kernels._ONE + kernels._STEP == kernels._ONE
            and kernels._fegetround() == kernels._FE_TONEAREST)


class TestBlocks:
    def test_probe_detects_upward_rounding(self):
        assert _rounds_to_nearest()
        with kernels.upward():
            assert not _rounds_to_nearest()
            assert kernels._fegetround() == kernels._FE_UPWARD
        assert _rounds_to_nearest()

    def test_blocks_restore_the_mode_they_found(self):
        with kernels.upward():
            with kernels.nearest():
                assert _rounds_to_nearest()
                with kernels.upward():
                    assert kernels._fegetround() == kernels._FE_UPWARD
                assert _rounds_to_nearest()
            assert kernels._fegetround() == kernels._FE_UPWARD
        assert _rounds_to_nearest()

    def test_blocks_restore_a_third_mode(self):
        # FE_DOWNWARD of <fenv.h>
        downward = {"x86_64": 0x400, "aarch64": 0x800000}[platform.machine()]
        assert kernels._fesetround(downward) == 0
        try:
            with kernels.upward():
                pass
            with kernels.nearest():
                pass
            assert kernels._fegetround() == downward
            assert kernels.mul_up(1.0, 0.1) == 0.1  # the fallback, in a third mode
        finally:
            kernels._fesetround(kernels._FE_TONEAREST)
        assert _rounds_to_nearest()

    def test_blocks_restore_the_mode_on_an_exception(self):
        with pytest.raises(KeyboardInterrupt):
            with kernels.upward():
                raise KeyboardInterrupt
        assert _rounds_to_nearest()


class TestPlatform:
    def test_constants_per_machine(self):
        assert kernels._FE_MODES == {"x86_64": (0x800, 0), "aarch64": (0x400000, 0)}
        assert (kernels._FE_UPWARD, kernels._FE_TONEAREST) == kernels._FE_MODES[platform.machine()]

    def test_machine_is_platform_machine(self):
        # kernels reads os.uname(), which platform.machine() also reads on a
        # POSIX system, so that importing tangency does not import platform.
        assert kernels._MACHINE == platform.machine()

    def test_unsupported_machine_is_an_import_error(self, monkeypatch):
        uname = os.uname()
        monkeypatch.setattr(os, "uname", lambda: type(uname)((*uname[:4], "sparc64")))
        spec = importlib.util.spec_from_file_location("kernels_elsewhere", kernels.__file__)
        with pytest.raises(ImportError, match="sparc64"):
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        assert _rounds_to_nearest()


def _interrupting(*args, **kwargs):
    raise KeyboardInterrupt


class _InterruptingMap:
    apply = derivative = staticmethod(_interrupting)


def _enclosure_error_toy_chain(params):
    chain = build_toy_chain(params)
    bad = PointShiftedMap(chain.maps[0], 10.0 * max(chain.sets[1].diam))
    return dataclasses.replace(chain, maps=(bad,) + chain.maps[1:])


class TestModeAfterAProof:
    """Every way out of prove and check-toy leaves the FPU rounding to
    nearest."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["prove", "henon"], 0),
            (["prove", "henon", "--param-radius", "1.1e-5"], 1),
            (["check-toy"], 0),
        ],
        ids=["verified", "inconclusive", "toy-verified"],
    )
    def test_verdicts(self, tmp_path, capsys, argv, code):
        assert main(argv + ["--report", str(tmp_path / "r.json")]) == code
        capsys.readouterr()
        assert _rounds_to_nearest()

    @pytest.mark.parametrize(
        "argv",
        [["prove", "henon", "--grid", "0"], ["check-toy", "--report", "/nonexistent/dir/r.json"]],
        ids=["bad-config", "unwritable-report"],
    )
    def test_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
        assert _rounds_to_nearest()

    def test_exit_three(self, monkeypatch, tmp_path, capsys):
        from tangency import toy

        monkeypatch.setattr(toy, "build_toy_chain", _enclosure_error_toy_chain)
        assert main(["check-toy", "--report", str(tmp_path / "r.json")]) == 3
        capsys.readouterr()
        assert _rounds_to_nearest()

    def test_keyboard_interrupt_inside_check_covering(self, monkeypatch):
        monkeypatch.setattr(ChartMap, "derivative", _interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_proof()
        assert _rounds_to_nearest()
        chain = build_toy_chain()
        with pytest.raises(KeyboardInterrupt):
            with kernels.upward():
                check_covering(chain.sets[0], chain.sets[1], _InterruptingMap())
        assert _rounds_to_nearest()

    def test_keyboard_interrupt_inside_check_toy(self, monkeypatch, tmp_path):
        from tangency import toy

        def interrupted(params):
            chain = build_toy_chain(params)
            maps = (chain.maps[0], _InterruptingMap()) + chain.maps[2:]
            return dataclasses.replace(chain, maps=maps)

        monkeypatch.setattr(toy, "build_toy_chain", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["check-toy", "--report", str(tmp_path / "r.json")])
        assert _rounds_to_nearest()


_NO_IMPORT_SCRIPT = """
import contextlib, io, json, sys
from tangency import kernels
from tangency.cli import main

enter, leave = kernels.upward.__enter__, kernels.upward.__exit__
before, imported, windows = [], [], [0]

def wrapped_enter(self):
    windows[0] += 1
    before.append(set(sys.modules))
    return enter(self)

def wrapped_exit(self, *exc):
    out = leave(self, *exc)
    imported.extend(sorted(set(sys.modules) - before.pop()))
    return out

kernels.upward.__enter__, kernels.upward.__exit__ = wrapped_enter, wrapped_exit
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "windows": windows[0], "imported": imported}))
"""


@pytest.mark.parametrize("argv", [["prove", "henon"], ["check-toy"]], ids=["prove", "check-toy"])
def test_no_module_is_imported_inside_an_upward_block(tmp_path, argv):
    """A fresh interpreter runs the command; sys.modules is the same at the
    exit of every upward block as at its entry.  An import inside one would
    compile the module's float literals under upward rounding."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _NO_IMPORT_SCRIPT, *argv, "--report", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert result["windows"] > 0
    assert result["imported"] == []


def _bits(obj):
    """obj with every float as its hex string."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _chain_bits(sets, forms):
    return _bits([[h.to_dict() for h in sets], [h.inv_coord for h in sets],
                  [q.to_dict() for q in forms]])


class TestSearchStaysInNearest:
    """The h-sets and forms equal a build made wholly in round-to-nearest
    (every upward block a no-op, the kernels each taking the per-call
    fallback), bit for bit."""

    def test_henon(self, monkeypatch, henon_proof):
        cert, _ = henon_proof
        chain = build_chain()
        monkeypatch.setattr(kernels, "upward", contextlib.nullcontext)
        nearest = build_chain()
        assert _chain_bits(chain.sets, chain.forms) == _chain_bits(nearest.sets, nearest.forms)
        assert _chain_bits(cert.hsets, cert.forms) == _chain_bits(nearest.sets, nearest.forms)

    def test_toy(self, monkeypatch, rng):
        params = [ToyParams()] + [
            ToyParams(lam=rng.uniform(1.5, 4.0), mu=rng.uniform(0.2, 0.6),
                      delta=rng.uniform(0.3, 0.7), eps=rng.uniform(0.005, 0.05))
            for _ in range(5)
        ]
        chains = [build_toy_chain(p) for p in params]
        monkeypatch.setattr(kernels, "upward", contextlib.nullcontext)
        for p, chain in zip(params, chains):
            nearest = build_toy_chain(p)
            assert _chain_bits(chain.sets, chain.forms) == _chain_bits(nearest.sets, nearest.forms)


def test_a_proof_takes_no_per_call_fallback(monkeypatch, tmp_path):
    calls = []
    fallback = kernels._upward_call

    def counted(kernel, *args):
        calls.append(kernel.__name__)
        return fallback(kernel, *args)

    monkeypatch.setattr(kernels, "_upward_call", counted)
    kernels.imul((1.0, 1.0), (3.0, 3.0))  # outside a block: counted
    assert calls == ["imul"]
    calls.clear()
    run_proof()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check-toy", "--report", str(tmp_path / "r.json")]) == 0
    assert calls == []
