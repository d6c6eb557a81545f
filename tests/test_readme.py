"""README's Python examples run as written, and its conversion commands
are the ones the CLI prints."""

import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest

from ggmlearn.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    out = StringIO()
    with redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    # the quickstart's edit distance, as its comment states
    assert out.getvalue().splitlines()[0] == "1"


def test_readme_conversion_commands_are_what_the_cli_prints(tmp_path, monkeypatch):
    # README's sample and model directories, as versions before the .npy
    # and .npz files wrote them
    monkeypatch.chdir(tmp_path)
    data, model = Path("runs/data"), Path("runs/model")
    data.mkdir(parents=True)
    model.mkdir()
    (data / "samples.csv").write_text("1\n0.5\n")
    (data / "samples.json").write_text(json.dumps({"n": 1, "p": 1, "seed": 0}))
    (model / "graph.edges").write_text("1 0\n")
    (model / "precision.csv").write_text("1\n1\n")
    printed = []
    for command, config in (("sample", {"model": str(model), "n": 1}), ("learn", {"samples": str(data)})):
        Path("cfg.json").write_text(json.dumps(config))
        stderr = StringIO()
        argv = ["ggmlearn", command, "--config", "cfg.json", "--out", "out"]
        with mock.patch.object(sys, "argv", argv), redirect_stderr(stderr), pytest.raises(SystemExit):
            run()
        printed.append(stderr.getvalue()[stderr.getvalue().index("python -c "):].strip())
    assert re.findall(r"^python -c .*$", README.read_text(), flags=re.M) == printed
