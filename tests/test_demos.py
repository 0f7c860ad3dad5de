"""Every demo script runs to completion as its own process, and README's
examples print what README says they print."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from racepred.cli import main

from helpers import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_examples_hold(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    # Quick start: a line `<expr>  # <literal> ...` claims the expression's value
    namespace: dict = {}
    claims = 0
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        block, n = re.subn(
            r"^(\S.*?) +# (True|False|\[[\d, ]*\])( .*)?$",
            r"assert (\1) == \2",
            block,
            flags=re.M,
        )
        exec(block, namespace)
        claims += n
    assert claims == 5
    # the CLI transcript: each `$ racepred ...` command, then what it prints
    monkeypatch.chdir(tmp_path)
    (transcript,) = re.findall(r"```sh\n(\$ racepred .*?)```", readme, re.S)
    for session in transcript.strip().split("\n\n"):
        command, *printed = session.splitlines()
        command, _, redirect = command.removeprefix("$ racepred ").partition(" > ")
        command, _, tail = command.partition(" | tail -")
        main(command.split())
        out = capsys.readouterr().out
        if redirect:
            Path(redirect).write_text(out)
        elif command.startswith("predict"):
            got, want = json.loads(out), json.loads("\n".join(printed))
            del got["stats"]["wall_ms"], want["stats"]["wall_ms"]
            assert got == want
        else:
            assert out.splitlines()[-int(tail or 0):] == printed
