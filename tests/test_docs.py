"""The README and the public names stay in step with the code they document."""

import argparse
import ast
import re
from pathlib import Path

import tangency
from tangency import cli
from tangency.henon import HenonConfig

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _paragraph(start):
    begin = README.index(start)
    end = README.find("\n\n", begin)
    return README[begin:end if end >= 0 else len(README)]


def _synopsis():
    """Options per subcommand in the fenced block under '## CLI'."""
    section = README[README.index("## CLI"):]
    block = section.split("```")[1]
    options = {}
    command = None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["tangency"]:
            command = words[1]
            options[command] = set()
        if command is not None:
            options[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return options


def _parser_options():
    parser = cli._build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            s
            for action in p._actions
            for s in action.option_strings
            if s.startswith("--") and s != "--help"
        }
        for name, p in sub.choices.items()
    }


def test_config_keys_match_henon_config():
    text = _paragraph("The config file passed with `--config`")
    keys = set(re.findall(r"`([a-z][a-z_]*)`", text))
    assert keys == set(HenonConfig.FIELDS)


def test_layout_names_every_module():
    section = README[README.index("## Layout"):]
    section = section[:section.index("\n## ", 1)]
    rows = [line.split("|")[1] for line in section.splitlines()
            if line.startswith("| `tangency.")]
    documented = [m for cell in rows for m in re.findall(r"`tangency\.(\w+)`", cell)]
    modules = {p.stem for p in (ROOT / "src" / "tangency").glob("*.py")} - {"__init__"}
    assert sorted(documented) == sorted(modules)


def test_cli_synopsis_names_every_option():
    documented = _synopsis()
    actual = _parser_options()
    assert set(documented) == set(actual) == {"prove", "check-toy"}
    for command, options in actual.items():
        assert documented[command] == options, command


def test_public_names_resolve():
    # A stale entry in __all__ breaks ``from tangency import *``.
    assert len(set(tangency.__all__)) == len(tangency.__all__)
    for name in tangency.__all__:
        assert hasattr(tangency, name), name


def _upward_blocks_and_handlers():
    """The (module, function) pairs of src/ that open a ``with ...
    upward():`` block, the function by qualified name and "<module>" at
    the top level, and per module the names its except clauses catch."""
    blocks, handlers = set(), {}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call)
                and getattr(item.context_expr.func, "attr",
                            getattr(item.context_expr.func, "id", None)) == "upward"
                for item in node.items):
            blocks.add((module, scope))
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            handlers[module] |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in (ROOT / "src" / "tangency").glob("*.py"):
        handlers[path.stem] = set()
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    return blocks, handlers


def test_stages_run_in_one_runner():
    # covering.run_stages opens the one upward block the stages of either
    # subcommand run in and turns an IntervalError into a verdict; the
    # drivers only build their chain and list their stages.  The other
    # blocks are build-time ones: the chain, the maps, the disks' sets,
    # the sub-box tables and an h-set's inverse frame.
    blocks, handlers = _upward_blocks_and_handlers()
    assert blocks == {
        ("covering", "run_stages"),
        ("henon", "henon_family"), ("henon", "eigen_data"), ("henon", "build_chain"),
        ("henon", "projected_disk_data"),
        ("hset", "_table"), ("hset", "Frame.__init__"),
        ("kernels", "<module>"),  # the import-time probe of the rounding
    }
    for module in ("henon", "toy"):
        assert not handlers[module] & {"IntervalError", "VerificationInconclusive"}, module


def test_src_evaluates_no_jets():
    # The maps are closed forms on pairs; the jets are the tests' oracle of
    # them (tests/jet_oracle.py), and no longer a public name.
    assert "Jet" not in tangency.__all__
    for path in (ROOT / "src" / "tangency").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\b(jets?|Jet|seed_jets)\b", text), path.name


def test_src_keeps_one_interval_representation():
    # Interval vectors and matrices are rows of (lo, hi) pairs in src/; the
    # objects that wrapped them are the tests' oracle
    # (tests/linalg_oracle.py), and no longer public names.
    assert not {"IntervalVector", "IntervalMatrix"} & set(tangency.__all__)
    assert "BACKEND" in tangency.__all__
    for path in (ROOT / "src" / "tangency").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\b(IntervalVector|IntervalMatrix|_wrap|SubBox)\b", text), path.name
