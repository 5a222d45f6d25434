"""The command line's own text: help, version and usage errors.

Every case here pins stdout, stderr and the exit code of one `lmprint`
call, byte for byte, against `cli_text.json`. argparse words its help a
little differently between Python versions, so the pinned text is the one
Python 3.11 prints (the version CI runs). On every version each usage case
must also print exactly what the full parser from `build_parser()` prints.

Regenerate the pinned text (only when a change alters it on purpose) with

    PYTHONPATH=src python tests/test_cli_text.py
"""

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import pytest

from lmprint.cli import build_parser, main

GOLDEN = Path(__file__).with_name("cli_text.json")
GOLDEN_PYTHON = (3, 11)
COMMANDS = ("plan", "simulate", "render", "check", "calibrate-flux",
            "fit-width", "flux-table", "line-width", "contact-probe")
LINE = "samples/straight-line.json"
PIPELINE = ["--drawing", LINE, "--speed", "10", "--pressure", "30"]

CASES = {
    "no-arguments": [],
    "help": ["--help"],
    "help-short": ["-h"],
    "version": ["--version"],
    "unknown-command": ["bogus"],
    "unknown-command-with-flags": ["bogus", "--drawing", LINE],
    "option-before-command": ["--drawing", LINE, "plan"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in COMMANDS},
    "plan-missing-required": ["plan"],
    "simulate-missing-required": ["simulate", "--drawing", LINE],
    "render-missing-required": ["render", *PIPELINE],
    "check-missing-required": ["check", "--drawing", LINE, "--speed", "10"],
    "calibrate-flux-missing-input": ["calibrate-flux"],
    "fit-width-missing-required": ["fit-width"],
    "flux-table-missing-required": ["flux-table", "--pressures", "1e5"],
    "line-width-missing-required": ["line-width", "--q-mm3s", "0.05"],
    "contact-probe-missing-required": ["contact-probe"],
    "plan-unrecognized-argument": ["plan", *PIPELINE, "extra"],
    "plan-unknown-option": ["plan", *PIPELINE, "--colour", "red"],
    "line-width-version-after-command": [
        "line-width", "--q-mm3s", "0.0656", "--v-mms", "40", "--version"],
    "plan-bad-float": ["plan", "--drawing", LINE, "--speed", "fast",
                       "--pressure", "30"],
    "plan-bad-choice": ["plan", *PIPELINE, "--format", "dxf"],
    "plan-abbreviated-option": ["plan", "--draw", LINE, "--speed", "10",
                                "--pressure", "30"],
    "check-ambiguous-option": ["check", *PIPELINE, "--min", "0.2"],
}

# cases that run a command rather than stop in the parser
RUNS = {"calibrate-flux-missing-input", "plan-abbreviated-option"}


@contextlib.contextmanager
def eighty_columns():
    """argparse wraps help to the terminal width, which COLUMNS sets."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def capture(argv: list[str]) -> dict:
    """stdout, stderr and exit code of main(argv)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    err = io.StringIO()
    with eighty_columns(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    out.flush()
    return {"argv": list(argv), "rc": rc,
            "stdout": out.buffer.getvalue().decode("utf-8"),
            "stderr": err.getvalue()}


def full_parser_text(argv: list[str]) -> dict:
    """What build_parser()'s full parser prints for a usage case."""
    out, err = io.StringIO(), io.StringIO()
    with eighty_columns(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        build_parser().parse_args(list(argv))
    return {"argv": list(argv), "rc": exc.value.code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.skipif(sys.version_info[:2] != GOLDEN_PYTHON,
                    reason="argparse text is pinned as Python 3.11 prints it")
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_text_is_pinned(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert capture(CASES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(set(CASES) - RUNS))
def test_usage_text_is_the_full_parsers(name):
    assert capture(CASES[name]) == full_parser_text(CASES[name])


def test_pinned_file_lists_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == \
        sorted(CASES)


def test_abbreviated_option_runs_like_the_full_one():
    got = capture(CASES["plan-abbreviated-option"])
    assert got["rc"] == 0 and got["stderr"] == ""
    assert got["stdout"] == capture(["plan", *PIPELINE])["stdout"]


def test_usage_errors_exit_2_and_help_exits_0():
    for name, argv in CASES.items():
        if name in RUNS:
            continue
        rc = capture(argv)["rc"]
        stops_clean = name.endswith("help") or name in ("help-short",
                                                        "version")
        assert rc == (0 if stops_clean else 2), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: capture(argv)
                                  for name, argv in CASES.items()},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
