"""A property over the CLI's argument vectors: whatever `cli.COMMANDS`
declares, any values for its options give an answer, never a crash.

Each example draws a command and values for its declared arguments: ints
huge, negative and zero, spelled in ASCII or not ("+4", " 3 ", "1_0",
Arabic-Indic digits), empty and odd strings, and paths to missing, empty,
non-JSON or directory files. It runs in-process on a fresh copy of a small
initialized and onboarded data dir, from a working directory under tmp.
Every answer exits 0, 1 or 2 with at most one JSON `{error, message}` line
on stderr, and one that exits non-zero leaves every file under the example
(the data dir, the files it was given, the working directory) as it was,
with no file added. `serve` runs only through a stub that returns at once,
`--peers` is capped at 8 and `--txs` at 20.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cveledger import httpapi
from cveledger.cli import COMMANDS, main

from conftest import files_under
from test_cli import RECORD
from test_one_fold import _NoServer

# the files an example is given, by the token a drawn value names them with
FILES = {
    "@empty": b"",
    "@garbage": b"\xffnot json{",
    "@record": json.dumps(dict(RECORD, cveID="CVE-2025-0002")).encode(),
    "@list": b"[]",
}
MISSING, DIRECTORY, CERT = "@missing", "@dir", "@cert"
PATHS = [*FILES, MISSING, DIRECTORY, CERT]

_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _spellings(n: int) -> st.SearchStrategy[str]:
    """`n` in ASCII, and spelled the ways `int()` takes and the CLI refuses."""
    text = str(n)
    return st.sampled_from(
        [text, f"+{text}", f" {text} ", f"{text}\n", text.translate(_ARABIC_INDIC), f"{text}_0", f"{text[0]}_{text}"]
    )


def _ints(least: int, greatest: int) -> st.SearchStrategy[str]:
    return st.integers(least, greatest).flatmap(_spellings)


_HUGE = st.sampled_from([2**63, 2**64 - 1, 2**64, 10**23, -(2**64), 10**400])
_NUMBERS = st.one_of(
    _ints(-5, 5),
    _ints(0, 3000),
    _HUGE.flatmap(_spellings),
    st.just("9" * 5000),  # more digits than `int()` converts
)
_NAMES = st.sampled_from(
    ["cna.redhat", "cna.zz", "cna.new", "cna.other", "gov.root", "peer0.org0", "CVE-2025-0001", "CVE-2025-0002"]
)
_ODD = st.one_of(st.sampled_from(["", " ", "-", "--", "-x", "\x00", "٣", "NaN", "1e3", "0x10"]), st.text(max_size=8))


def _weighted(*pairs: tuple[st.SearchStrategy, int]) -> st.SearchStrategy:
    """Draws from each strategy in proportion to its weight."""
    return st.sampled_from([s for s, weight in pairs for _ in range(weight)]).flatmap(lambda s: s)


_STRINGS = _weighted((_NAMES, 3), (st.sampled_from(PATHS), 2), (_NUMBERS, 1), (_ODD, 1))
_FILE_ARG = _weighted((st.sampled_from(PATHS), 4), (_STRINGS, 1))
_NAME_ARG = _weighted((_NAMES, 4), (_STRINGS, 1))

# values per argument dest where what it names matters; every other one takes _STRINGS
_VALUES = {
    **dict.fromkeys(("out", "meta", "candidates", "certfile", "record_json"), _FILE_ARG),
    **dict.fromkeys(("participant", "cna", "cve_id", "ids", "keep", "revise", "caller"), _NAME_ARG),
    "peers": st.one_of(_ints(-2, 8), st.sampled_from(["", "x"])),
    "txs": st.one_of(_ints(-2, 20), st.sampled_from(["", "x"])),
    "now": _NUMBERS,
    "embargo": _NUMBERS,
    "year": _NUMBERS,
    "port": st.one_of(_NUMBERS, _ints(65530, 65540)),
}


def _dest(flags: tuple, kwargs: dict) -> str:
    return kwargs.get("dest") or flags[-1].lstrip("-").replace("-", "_")


def _value(flags: tuple, kwargs: dict) -> st.SearchStrategy[str]:
    values = _VALUES.get(_dest(flags, kwargs), _STRINGS)
    if "choices" in kwargs:
        values = _weighted((st.sampled_from(kwargs["choices"]), 3), (values, 1))
    return values


@st.composite
def argvs(draw) -> list[str]:
    """A command of `COMMANDS` and values for what it declares; a required
    argument is left out now and then, which is a usage error."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flags, kwargs in COMMANDS[command].arguments:
        positional = not flags[0].startswith("-")
        if kwargs.get("action") == "store_true":
            argv += [flags[0]] if draw(st.booleans()) else []
        elif positional or kwargs.get("required"):
            if draw(st.integers(0, 19)):
                count = draw(st.integers(1, 3)) if kwargs.get("nargs") == "+" else 1
                values = [draw(_value(flags, kwargs)) for _ in range(count)]
                argv += values if positional else [flags[0], *values]
        elif draw(st.booleans()):
            argv += [flags[0], draw(_value(flags, kwargs))]
    data_dir = "node" if draw(st.integers(0, 4)) else "fresh"  # "fresh" is a dir not made yet
    return ["--data-dir", data_dir, *argv]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """A small data dir: 2 peers, cna.redhat onboarded with one record, and
    cna.other issued but not onboarded (its certificate is `@cert`)."""
    root = tmp_path_factory.mktemp("argv")
    record = root / "record.json"
    record.write_text(json.dumps(RECORD))
    for argv in (
        ["init", "--now", "1000", "--peers", "2"],
        ["issue", "cna.redhat", "--out", str(root / "redhat.cert.json")],
        ["onboard", "cna.redhat", str(root / "redhat.cert.json")],
        ["submit", str(record), "--embargo", "1500"],
        ["issue", "cna.other", "--out", str(root / "cert.json")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--data-dir", str(root / "node"), *argv]) == 0, argv
    return root


def _example_dir(pristine: Path, root: Path) -> dict[str, str]:
    """Lays out one example under `root`; returns each token's path."""
    shutil.copytree(pristine / "node", root / "node")
    paths = {MISSING: str(root / "missing.json"), DIRECTORY: str(root / "adir"), CERT: str(root / "cert.json")}
    (root / "adir").mkdir()
    shutil.copy(pristine / "cert.json", root / "cert.json")
    for token, content in FILES.items():
        paths[token] = str(root / f"{token[1:]}.json")
        Path(paths[token]).write_bytes(content)
    return paths


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
@example(argv=["--data-dir", "node", "issue", "cna.zz", "--out", DIRECTORY])
@example(argv=["--data-dir", "node", "tick", "--now", "+5"])
@example(argv=["--data-dir", "fresh", "init", "--peers", "٢"])
def test_every_argv_exits_0_1_or_2_with_one_error_line_and_a_refusal_changes_no_file(pristine, tmp_path, argv):
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        root = Path(tmp)
        paths = _example_dir(pristine, root)
        argv = [paths.get(arg, arg) for arg in argv]
        before = files_under(root)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with mock.patch.object(httpapi, "serve_queries", lambda *args, **kwargs: _NoServer()):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(cwd)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, code, lines)
        assert len(lines) <= 1, (argv, lines)
        for line in lines:
            error = json.loads(line)
            assert set(error) == {"error", "message"} and all(isinstance(v, str) for v in error.values()), line
        assert (code == 2) <= (len(lines) == 1 and json.loads(lines[0])["error"] == "UsageError"), (argv, lines)
        if code != 0:
            assert files_under(root) == before, (argv, code, lines)
