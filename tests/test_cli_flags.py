"""Every flag a subcommand accepts is read by the code that runs it.

The check reads ``cli.py``'s syntax tree: each destination a subparser
declares must appear as ``args.<dest>`` in its ``cmd_*`` function or in a
module function that the ``cmd_*`` passes ``args`` to.  The flag table in
``README.md`` lists exactly the options each subparser declares, and its exit
codes are those of ``cli``.  README states contracts only: it names no private
identifier and quotes no figure that goes stale with the code or the host.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from radarplace import cli
from radarplace.cli import main

TREE = ast.parse(Path(cli.__file__).read_text())


def attributes_read(func: ast.FunctionDef, param: str, functions: dict) -> set[str]:
    """Attributes read on ``param`` in ``func`` and in the module functions it passes it to."""
    reads = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions and node.func.id != func.name):
            helper = functions[node.func.id]
            for arg, helper_param in zip(node.args, helper.args.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    reads |= attributes_read(helper, helper_param.arg, functions)
    return reads


def _functions(tree) -> dict:
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_checker_follows_helpers_that_receive_args():
    source = (
        "def _helper(a, opts):\n    return opts.depth\n"
        "def cmd_x(args):\n    _helper(1, args)\n    return args.out\n"
    )
    functions = _functions(ast.parse(source))
    assert attributes_read(functions["cmd_x"], "args", functions) == {"depth", "out"}


@pytest.mark.parametrize("name", sorted(_subparsers()))
def test_every_declared_flag_is_read(name):
    sub = _subparsers()[name]
    dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
    functions = _functions(TREE)
    cmd = functions[sub.get_default("func").__name__]
    assert dests - attributes_read(cmd, cmd.args.args[0].arg, functions) == set()


def _base_args(tmp_path) -> dict[str, list[str]]:
    """Otherwise valid invocations on missing inputs: each exits 2 or 3, never 1."""
    none = str(tmp_path / "missing")
    return {
        "simulate": ["--scene", none, "--out", str(tmp_path / "o")],
        "heatmap": ["--in", none, "--out", str(tmp_path / "o")],
        "concat": ["--in", none, "--out", str(tmp_path / "o")],
        "train": ["--heatmaps", none, "--poses", none, "--out", str(tmp_path / "w")],
        "build-db": ["--heatmaps", none, "--poses", none, "--weights", none,
                     "--out", str(tmp_path / "d")],
        "query": ["--db", none, "--weights", none, none],
        "render": ["--in", none, "--out", str(tmp_path / "x.pgm")],
    }


REMOVED_FLAGS = [
    ("simulate", "--preset", "paper-defaults"),
    ("heatmap", "--seed", "5"),
    ("heatmap", "--preset", "paper-defaults"),
    ("concat", "--seed", "5"),
    ("concat", "--preset", "paper-defaults"),
    ("concat", "--a-window", "20"),
    ("concat", "--step-bins", "4"),
    ("train", "--config", "x.cfg"),
    ("train", "--preset", "paper-defaults"),
    ("build-db", "--config", "x.cfg"),
    ("build-db", "--seed", "5"),
    ("build-db", "--preset", "paper-defaults"),
    ("query", "--config", "x.cfg"),
    ("query", "--seed", "5"),
    ("query", "--preset", "paper-defaults"),
    ("render", "--config", "x.cfg"),
    ("render", "--seed", "5"),
    ("render", "--preset", "paper-defaults"),
]


@pytest.mark.parametrize("name, flag, value", REMOVED_FLAGS)
def test_flag_the_subcommand_does_not_read_exits_1(tmp_path, capsys, name, flag, value):
    base = [name, *_base_args(tmp_path)[name]]
    assert main(base) in (2, 3)
    capsys.readouterr()
    assert main([*base, flag, value]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def _readme_flag_table() -> dict[str, set[str]]:
    """Subcommand -> the ``--`` options that README.md's flag table lists for it."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| Subcommand | Flags |") + 2  # skip the header rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[name.strip("`")] = set(re.findall(r"--[\w-]+", flags))
    return table


def test_readme_flag_table_matches_the_parser():
    declared = {
        name: {opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
        for name, sub in _subparsers().items()
    }
    assert _readme_flag_table() == declared


README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_exit_codes_match_the_cli():
    section = README.split("\n## Exit codes\n", 1)[1].split("\n#", 1)[0]
    listed = {int(code): text for code, text in re.findall(r"^- `(\d)` (.+)$", section, re.M)}
    # --help prints the module docstring, reflowed
    help_text = " ".join(cli.build_parser().format_help().split())
    stated = {int(code): text.strip() for code, text in
              re.findall(r"(\d) ([^,.(]+)", help_text.split("Exit codes:", 1)[1])}
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    assert listed.keys() == stated.keys() == codes
    for code, text in listed.items():
        assert text.startswith(stated[code]), code


def test_readme_names_no_private_identifier():
    assert re.findall(r"(?<!\w)_[A-Za-z]\w*", README) == []


def test_readme_quotes_no_timing_machine_or_test_count():
    assert re.findall(r"\d\s?(?:ms|µs|s)\b", README) == []
    assert re.findall(r"vCPU|\bVM\b|\bCPUs?\b|\bcores?\b|\bRAM\b", README) == []
    assert re.findall(r"\d+ (?:tests|passed)\b", README) == []
