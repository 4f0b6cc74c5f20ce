"""The README's examples: the Python API one executed as written, and the
Quick start commands parsed by the CLI; the flags, constants and public
names it states."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import hybridreid
from hybridreid import cli, clustering, evaluation, memory

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    metrics = ast.literal_eval(capsys.readouterr().out)
    assert set(metrics) == {"mAP", "rank1", "rank5", "rank10"}


def test_quick_start_commands_parse():
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(commands) == 5
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line)
        assert argv[0] == "hybridreid"
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_every_flag_outside_install_parses():
    """A flag the README names outside its Install block (whose flags are
    pip's) is an option of the top-level parser or of some subcommand."""
    text = README.read_text()
    install = re.search(r"## Install\n+```sh\n.*?```", text, re.S).group(0)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text.replace(install, "")))
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = set(parser._option_string_actions)
    for sub in subparsers.choices.values():
        known |= set(sub._option_string_actions)
    assert len(flags) >= 20
    assert flags <= known, f"README names flags the CLI does not parse: {sorted(flags - known)}"


def test_exit_code_table_matches_cli():
    section = README.read_text().split("### Exit codes", 1)[1]
    table = section.strip().split("\n\n", 1)[0]
    codes = [int(m) for m in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)]
    constants = [v for k, v in vars(cli).items() if k.startswith("EXIT_")]
    assert codes == sorted(constants)


def test_block_sizes_match_code():
    text = README.read_text()
    rows = re.findall(r"(\d+)\s+rows\s+at\s+a\s+time", text)
    queries = re.findall(r"per\s+(\d+)-query\s+block", text)
    scores = re.findall(r"(\d+)\s+KiB\s+of\s+similarities", text)
    assert rows and queries and scores
    assert {int(r) for r in rows} == {clustering.BLOCK_ROWS}
    assert {int(q) for q in queries} == {evaluation.SCREEN_BLOCK}
    assert {int(k) << 10 for k in scores} == {memory.SCORE_BYTES}


def test_lower_level_names_resolve():
    text = README.read_text()
    paragraph = text.split("Lower-level pieces are importable", 1)[1].split("\n\n", 1)[0]
    names = [n for n in re.findall(r"`([^`]+)`", paragraph)
             if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", n)]
    assert len(names) >= 10
    for name in names:
        obj = hybridreid
        for part in name.removeprefix("hybridreid.").split("."):
            assert hasattr(obj, part), f"README names {name}, which does not resolve"
            obj = getattr(obj, part)
