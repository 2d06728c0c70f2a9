"""Replay of the golden command line transcript, with the standard library only.

`tests/cli_golden/corpus.json` stores, for each argv, the exit code, the
sha256 of stdout and the exact stderr of `cli.main`. This module replays
the recorded entries without pytest, so that any installed interpreter
can check them:

    PYTHONPATH=src python tests/golden_replay.py

It prints the number of entries replayed and exits 1 when any differs.
argparse's own usage text may differ between Python versions, so a
usage error recorded under another version is compared by exit code and
stdout only. `test_cli_golden.py` runs the same replay under pytest.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from sympl.cli import main

DATA = Path(__file__).with_name("cli_golden")
CORPUS = DATA / "corpus.json"
PLACEHOLDER = "@DATA@"


@contextlib.contextmanager
def _environment(env):
    """The variables the entry sets, and a fixed width for argparse."""
    saved = {k: os.environ.get(k) for k in (*(env or {}), "COLUMNS")}
    os.environ.update(env or {}, COLUMNS="80")
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run(entry):
    """(exit code, stdout, stderr) of the entry's argv run through cli.main."""
    argv = [a.replace(PLACEHOLDER, str(DATA)) for a in entry["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with _environment(entry.get("env")), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def replay(entry):
    code, out, err = run(entry)
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": err.replace(str(DATA), PLACEHOLDER),
    }


def python_version():
    return "{}.{}".format(*sys.version_info[:2])


def mismatches(recorded):
    """(argv, env, recorded, replayed) for each entry of the recorded corpus that differs."""
    same_python = recorded["python"] == python_version()
    out = []
    for entry in recorded["entries"]:
        got = replay(entry)
        want = {k: entry[k] for k in got}
        if not same_python and want["stderr"].startswith("usage: "):
            got["stderr"] = want["stderr"]
        if got != want:
            out.append((entry["argv"], entry.get("env"), want, got))
    return out


if __name__ == "__main__":
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    differ = mismatches(corpus)
    print(f"python {sys.version.split()[0]}: {len(corpus['entries'])} entries replayed, {len(differ)} differ")
    for argv, env, want, got in differ[:3]:
        print(f"  {argv} {env or ''}\n    recorded {want}\n    replayed {got}")
    sys.exit(1 if differ else 0)
