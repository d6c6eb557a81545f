import importlib
import io
import json
import os
import re
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner

from ggmlearn import (
    EnsembleConfig,
    EstimatorConfig,
    GaussianModel,
    InvalidParameter,
    cmit,
    cycle_graph,
    sample,
    synthesize_model,
)
from ggmlearn.cli import main, run
from ggmlearn.harness import LANE_SIGNS, lane_seed
from ggmlearn.io import load_model, load_result, load_samples, read_edge_list, save_model, save_result, save_samples


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def invoke_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output or str(result.exception)
    return result


def test_version_flag(runner):
    result = invoke_ok(runner, ["--version"])
    assert "ggmlearn" in result.output


def test_generate_writes_graph_and_manifest(runner, tmp_path):
    cfg = write_config(tmp_path / "gen.json", {"kind": "er", "p": 20, "c": 2.0, "seed": 3})
    out = tmp_path / "gen_out"
    invoke_ok(runner, ["generate", "--config", cfg, "--out", str(out)])
    g = read_edge_list(out / "graph.edges")
    assert g.p == 20
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3
    # rerunning reproduces the same edge list
    out2 = tmp_path / "gen_out2"
    invoke_ok(runner, ["generate", "--config", cfg, "--out", str(out2)])
    assert (out / "graph.edges").read_text() == (out2 / "graph.edges").read_text()
    # an overriding seed changes the draw
    out3 = tmp_path / "gen_out3"
    invoke_ok(runner, ["generate", "--config", cfg, "--out", str(out3), "--seed", "4"])
    assert (out / "graph.edges").read_text() != (out3 / "graph.edges").read_text()


def test_synthesize_from_ensemble(runner, tmp_path):
    cfg = write_config(tmp_path / "syn.json", {
        "ensemble": {"kind": "chain", "p": 8},
        "target_alpha": 0.5,
        "sign_pattern": "alternating",
    })
    out = tmp_path / "model"
    result = invoke_ok(runner, ["synthesize", "--config", cfg, "--out", str(out)])
    assert "alpha=0.500000" in result.output
    model = load_model(out)
    assert model.p == 8
    assert abs(model.alpha - 0.5) < 1e-6
    assert model.meta["sign_pattern"] == "alternating"


def test_synthesize_from_explicit_graph_file(runner, tmp_path):
    gen_cfg = write_config(tmp_path / "gen.json", {"kind": "cycle", "p": 6})
    gen_out = tmp_path / "graph_dir"
    invoke_ok(runner, ["generate", "--config", gen_cfg, "--out", str(gen_out)])
    syn_cfg = write_config(tmp_path / "syn.json", {
        "graph": str(gen_out / "graph.edges"),
        "target_alpha": 0.4,
    })
    out = tmp_path / "model"
    invoke_ok(runner, ["synthesize", "--config", syn_cfg, "--out", str(out)])
    assert load_model(out).graph.n_edges == 6


def test_synthesize_draws_signs_from_their_own_lane(runner, tmp_path):
    ensemble = {"kind": "er", "p": 12, "c": 3.0}
    cfg = write_config(tmp_path / "syn.json", {
        "ensemble": ensemble, "target_alpha": 0.4, "sign_pattern": "random", "seed": 6})
    invoke_ok(runner, ["synthesize", "--config", cfg, "--out", str(tmp_path / "model")])
    saved = load_model(tmp_path / "model")
    graph = EnsembleConfig.from_dict(ensemble).build(6)
    want = synthesize_model(graph, 0.4, sign_pattern="random", seed=lane_seed(6, 0, LANE_SIGNS))
    assert saved.graph == graph
    assert np.array_equal(np.asarray(saved.precision), np.asarray(want.precision))

    # the graph key is unchanged: generate then synthesize --graph gives the same model
    gen_cfg = write_config(tmp_path / "gen.json", {**ensemble, "seed": 6})
    invoke_ok(runner, ["generate", "--config", gen_cfg, "--out", str(tmp_path / "graph")])
    via_file = write_config(tmp_path / "syn2.json", {
        "graph": str(tmp_path / "graph" / "graph.edges"), "target_alpha": 0.4,
        "sign_pattern": "random", "seed": 6})
    invoke_ok(runner, ["synthesize", "--config", via_file, "--out", str(tmp_path / "model2")])
    assert np.array_equal(np.asarray(load_model(tmp_path / "model2").precision),
                          np.asarray(saved.precision))


def test_sample_and_learn_round_trip(runner, tmp_path):
    syn_cfg = write_config(tmp_path / "syn.json", {
        "ensemble": {"kind": "chain", "p": 8}, "target_alpha": 0.5})
    model_dir = tmp_path / "model"
    invoke_ok(runner, ["synthesize", "--config", syn_cfg, "--out", str(model_dir)])

    smp_cfg = write_config(tmp_path / "smp.json", {
        "model": str(model_dir), "n": 4000, "seed": 11})
    smp_dir = tmp_path / "samples"
    invoke_ok(runner, ["sample", "--config", smp_cfg, "--out", str(smp_dir)])
    samples = load_samples(smp_dir)
    assert samples.data.shape == (4000, 8)

    learn_cfg = write_config(tmp_path / "learn.json", {
        "samples": str(smp_dir), "estimator": {"eta": 1}})
    learn_dir = tmp_path / "learned"
    invoke_ok(runner, ["learn", "--config", learn_cfg, "--out", str(learn_dir)])
    estimate = read_edge_list(learn_dir / "estimate.edges")
    truth = load_model(model_dir).graph
    assert estimate == truth
    payload = json.loads((learn_dir / "result.json").read_text())
    assert payload["n"] == 4000
    assert payload["statistic"] == "covariance"
    # the directory reads back as the library result, pair arrays bit for bit
    result = cmit(samples, EstimatorConfig(eta=1))
    result.elapsed_s = payload["elapsed_s"]
    back = load_result(learn_dir)
    assert back.summary() == result.summary()
    assert back.pairs == result.pairs
    assert back.values.tobytes() == result.values.tobytes()
    assert payload == result.summary()


def test_learn_exits_early_by_default(tmp_path):
    save_samples(sample(synthesize_model(cycle_graph(10), 0.5), 2000, seed=4), tmp_path / "samples")
    runs = {}
    for name, estimator in (("default", {"eta": 2}), ("full", {"eta": 2, "early_exit": False})):
        cfg = write_config(tmp_path / f"{name}.json", {"samples": str(tmp_path / "samples"), "estimator": estimator})
        proc = run_cli(cfg, tmp_path / name)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / name / "result.json").read_text())
        statuses = [d.status for d in load_result(tmp_path / name).pairs.values()]
        summary = f"estimated {len(payload['edges'])} edges at threshold {payload['threshold']:.6g}"
        runs[name] = (proc.stdout, payload["config"]["early_exit"], statuses.count("early_exit"), summary)
    stdout, early_exit, stopped, summary = runs["default"]
    assert early_exit is True and stopped >= 1
    assert stdout == f"{summary}; {stopped} of 45 pairs stopped early (values are upper bounds)\n"
    stdout, early_exit, stopped, summary = runs["full"]
    assert early_exit is False and stopped == 0
    assert stdout == summary + "\n"
    assert (tmp_path / "default" / "estimate.edges").read_bytes() == (tmp_path / "full" / "estimate.edges").read_bytes()


def test_learn_summary_line_counts_as_result_json(tmp_path):
    save_samples(sample(synthesize_model(cycle_graph(12), 0.5), 1500, seed=9), tmp_path / "samples")
    cfg = write_config(tmp_path / "learn.json", {"samples": str(tmp_path / "samples"), "estimator": {"eta": 1}})
    proc = run_cli(cfg, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    counts = json.loads((tmp_path / "out" / "result.json").read_text())["status_counts"]
    statuses = [d.status for d in load_result(tmp_path / "out").pairs.values()]
    assert counts == {status: statuses.count(status) for status in counts}
    stopped, total = re.search(r"; (\d+) of (\d+) pairs stopped early", proc.stdout).groups()
    assert (int(stopped), int(total)) == (counts["early_exit"], sum(counts.values())) == (statuses.count("early_exit"), 66)


def test_learn_exact_mode(runner, tmp_path):
    syn_cfg = write_config(tmp_path / "syn.json", {
        "ensemble": {"kind": "cycle", "p": 7}, "target_alpha": 0.5})
    model_dir = tmp_path / "model"
    invoke_ok(runner, ["synthesize", "--config", syn_cfg, "--out", str(model_dir)])
    learn_cfg = write_config(tmp_path / "learn.json", {
        "model": str(model_dir),
        "estimator": {"eta": 2, "exact_mode": True, "xi": 0.05}})
    learn_dir = tmp_path / "learned"
    invoke_ok(runner, ["learn", "--config", learn_cfg, "--out", str(learn_dir)])
    assert read_edge_list(learn_dir / "estimate.edges") == load_model(model_dir).graph


def test_lbp_command(runner, tmp_path):
    syn_cfg = write_config(tmp_path / "syn.json", {
        "ensemble": {"kind": "cycle", "p": 6}, "target_alpha": 0.5})
    model_dir = tmp_path / "model"
    invoke_ok(runner, ["synthesize", "--config", syn_cfg, "--out", str(model_dir)])
    lbp_cfg = write_config(tmp_path / "lbp.json", {
        "model": str(model_dir), "h": [1, 0, 0, 0, 0, -1]})
    out = tmp_path / "lbp_out"
    result = invoke_ok(runner, ["lbp", "--config", lbp_cfg, "--out", str(out)])
    assert "converged" in result.output
    payload = json.loads((out / "lbp.json").read_text())
    assert payload["converged"] is True
    model = load_model(model_dir)
    want = np.linalg.solve(np.asarray(model.precision), np.array([1, 0, 0, 0, 0, -1.0]))
    assert np.max(np.abs(np.array(payload["means"]) - want)) < 1e-6


def test_bounds_scalar_and_grid(runner, tmp_path):
    cfg = write_config(tmp_path / "b.json", {"p": 100, "c": 4, "alpha": 0.3, "distortion": 10})
    out = tmp_path / "bounds_out"
    invoke_ok(runner, ["bounds", "--config", cfg, "--out", str(out)])
    reports = json.loads((out / "bounds.json").read_text())
    assert len(reports) == 1
    assert reports[0]["n_exact"] == pytest.approx(4.4632660593420006, rel=1e-12)
    assert not (out / "bounds.csv").exists()

    grid_cfg = write_config(tmp_path / "bg.json", {
        "p": [64, 128, 256], "c": 2, "alpha": 0.5, "epsilon": 0.2})
    grid_out = tmp_path / "bounds_grid"
    invoke_ok(runner, ["bounds", "--config", grid_cfg, "--out", str(grid_out)])
    lines = (grid_out / "bounds.csv").read_text().strip().split("\n")
    assert lines[0].startswith("p,c,alpha,epsilon,distortion,n_exact")
    assert len(lines) == 4
    assert json.loads((grid_out / "bounds.json").read_text())[2]["config"]["p"] == 256
    json_out = tmp_path / "bounds_grid_json"
    invoke_ok(runner, ["bounds", "--config", grid_cfg, "--out", str(json_out), "--format", "json"])
    assert (json_out / "bounds.json").exists() and not (json_out / "bounds.csv").exists()


def test_sweep_command_csv_and_json(runner, tmp_path):
    entry = {
        "ensemble": {"kind": "chain", "p": 8},
        "estimator": {"eta": 1},
        "n": 800,
        "trials": 2,
        "seed": 4,
    }
    cfg = write_config(tmp_path / "sw.json", {"configs": [entry]})
    out_csv = tmp_path / "sweep_csv"
    invoke_ok(runner, ["sweep", "--config", cfg, "--out", str(out_csv)])
    lines = (out_csv / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("p,c_or_delta,alpha")
    assert len(lines) == 2

    out_json = tmp_path / "sweep_json"
    invoke_ok(runner, ["sweep", "--config", cfg, "--out", str(out_json), "--format", "json"])
    rows = json.loads((out_json / "sweep.json").read_text())
    assert rows[0]["p"] == 8 and rows[0]["trials"] == 2


@pytest.mark.parametrize("command", ["generate", "synthesize", "sample", "learn", "lbp", "bounds", "sweep"])
def test_threads_option_is_rejected(runner, tmp_path, command):
    cfg = write_config(tmp_path / "c.json", {})
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "x"), "--threads", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--threads" in result.output
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["generate", "synthesize", "sample", "learn", "lbp"])
def test_format_option_only_on_tabular_commands(runner, tmp_path, command):
    cfg = write_config(tmp_path / "c.json", {})
    result = runner.invoke(main, [command, "--config", cfg, "--out", str(tmp_path / "x"), "--format", "json"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--format" in result.output
    assert not (tmp_path / "x").exists()


def test_sweep_seed_override_applies_to_all_entries(runner, tmp_path):
    entry = {
        "ensemble": {"kind": "er", "p": 10, "c": 1.5},
        "estimator": {"eta": 1},
        "n": 300,
        "trials": 2,
        "seed": 4,
    }
    cfg = write_config(tmp_path / "sw.json", {"configs": [entry]})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    invoke_ok(runner, ["sweep", "--config", cfg, "--out", str(out_a), "--seed", "99"])
    invoke_ok(runner, ["sweep", "--config", cfg, "--out", str(out_b), "--seed", "99"])
    assert (out_a / "sweep.csv").read_text().split(",")[:8] == \
        (out_b / "sweep.csv").read_text().split(",")[:8]
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_bad_config_fails_cleanly(runner, tmp_path):
    cfg = write_config(tmp_path / "bad.json", {
        "ensemble": {"kind": "chain", "p": 8}, "target_alpha": 1.5})
    result = runner.invoke(main, ["synthesize", "--config", cfg, "--out", str(tmp_path / "x")])
    assert result.exit_code != 0


def test_missing_config_file_fails(runner, tmp_path):
    result = runner.invoke(main, ["generate", "--config", str(tmp_path / "nope.json"),
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code != 0


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def cli_args(cfg: str, out: Path, command: str) -> list[str]:
    """``<command> --config cfg --out out``; ``command`` may carry options
    after the subcommand name."""
    return [*command.split(), "--config", cfg, "--out", str(out)]


def run_cli_subprocess(cfg: str, out: Path, command: str = "learn") -> subprocess.CompletedProcess:
    """Run ``python -m ggmlearn.cli <command> --config cfg --out out`` in a
    fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "ggmlearn.cli", *cli_args(cfg, out, command)],
                          capture_output=True, text=True, env=src_env(), timeout=120)


def run_cli(cfg: str, out: Path, command: str = "learn") -> subprocess.CompletedProcess:
    """Run ``ggmlearn <command> --config cfg --out out`` in this process
    through the console entry point ``cli.run`` with ``sys.argv`` set, and
    return its exit status and captured output as ``run_cli_subprocess``
    does.  An exception that escapes ``cli.run`` is printed with its
    traceback and exits 1, as the interpreter would."""
    argv = ["ggmlearn", *cli_args(cfg, out, command)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", argv), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            run()
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(), stderr.getvalue())


def assert_clean_error(proc: subprocess.CompletedProcess, prefix: str) -> None:
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix), proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_package_error_prints_message_without_traceback(tmp_path):
    samples = tmp_path / "samples"
    samples.mkdir()
    (samples / "samples.npy").write_text("2\n0.5,1.5\n0.5,oops\n")
    (samples / "samples.json").write_text(json.dumps({"n": 2, "p": 2, "seed": 0}))
    cfg = write_config(tmp_path / "learn.json", {"samples": str(samples), "estimator": {"eta": 1}})
    proc = run_cli_subprocess(cfg, tmp_path / "out")
    assert_clean_error(proc, f"Error: {samples / 'samples.npy'} is not a valid .npy array")
    assert "pickle" not in proc.stderr  # text is not pickled data


def test_console_script_is_the_entry_point_run_cli_drives():
    # the installed ``ggmlearn`` command calls cli.run, so the in-process
    # cases exercise what the console script runs
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ggmlearn"]
    module, _, name = target.partition(":")
    assert (module, name) == ("ggmlearn.cli", "run")
    assert getattr(importlib.import_module(module), name) is run


def test_config_that_is_not_json_fails_cleanly(tmp_path):
    cfg = tmp_path / "learn.json"
    cfg.write_text("samples: runs/data\n")
    proc = run_cli(str(cfg), tmp_path / "out")
    assert_clean_error(proc, "Error: configuration ")
    assert "is not valid JSON" in proc.stderr


def test_config_missing_required_key_fails_cleanly(tmp_path):
    cfg = write_config(tmp_path / "learn.json", {"estimator": {"eta": 1}})
    proc = run_cli(cfg, tmp_path / "out")
    assert_clean_error(proc, "Error: configuration is missing the required key 'samples'")


def test_config_must_be_an_object(runner, tmp_path):
    cfg = write_config(tmp_path / "learn.json", [1, 2])
    result = runner.invoke(main, ["learn", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "must hold a JSON object, got list" in str(result.exception)


CHAIN = {"kind": "chain", "p": 6}


@pytest.mark.parametrize("command, payload, message", [
    ("sweep", {"configs": [{"ensemble": CHAIN, "estimator": {"kapa": 2.0}}]},
     "EstimatorConfig block has unknown key 'kapa'"),
    ("sweep", {"configs": [{"ensemble": {"p": 6}}]},
     "EnsembleConfig block is missing the required key 'kind'"),
    ("sweep", {"configs": [{"ensemble": CHAIN, "trails": 3}]}, "TrialConfig block has unknown key 'trails'"),
    ("sweep", [{"n": 100}], "TrialConfig block is missing the required key 'ensemble'"),
    ("sweep", {"configs": [{"ensemble": CHAIN, "estimator": [1]}]},
     "EstimatorConfig block must be an object, got list"),
    ("generate", {"kind": "chain", "q": 6}, "EnsembleConfig block has unknown key 'q'"),
    ("generate", {"kind": "chain", "p": 10, "c": 3}, "ensemble kind 'chain' does not take field 'c'"),
    ("generate", {"kind": "smallworld", "p": 10**400 + 1, "d": 2, "c": 1.0},
     f"p={10**400 + 1} is not a perfect d-th power with side >= 2 for d=2"),
    ("learn", {"samples": "unused", "estimator": {"eta": 1, "xii": 0.1}},
     "EstimatorConfig block has unknown key 'xii'"),
    ("bounds", {"p": 50, "c": 2.0}, "BoundsConfig block is missing the required key 'alpha'"),
    ("sweep --seed 3", {"configs": [3]}, "TrialConfig block must be an object, got int"),
    ("sweep --seed 3", [[{"n": 100}]], "TrialConfig block must be an object, got list"),
], ids=["estimator-unknown", "ensemble-no-kind", "trial-unknown", "trial-no-ensemble", "estimator-not-object",
        "generate-unknown", "generate-foreign-field", "generate-huge-non-power", "learn-unknown", "bounds-missing",
        "seed-override-entry-int", "seed-override-entry-list"])
def test_config_block_key_errors_fail_cleanly(tmp_path, command, payload, message):
    cfg = write_config(tmp_path / "cfg.json", payload)
    proc = run_cli(cfg, tmp_path / "out", command)
    assert_clean_error(proc, f"Error: {message}")


@pytest.mark.parametrize("command, extra, key, missing_file", [
    ("learn", {}, "samples", "samples.npy"),
    ("learn", {"estimator": {"exact_mode": True, "xi": 0.1}}, "model", "graph.edges"),
    ("sample", {"n": 10}, "model", "graph.edges"),
    ("lbp", {}, "model", "graph.edges"),
    ("synthesize", {"target_alpha": 0.5}, "graph", None),
], ids=["learn-samples", "learn-exact-model", "sample-model", "lbp-model", "synthesize-graph"])
def test_missing_input_path_fails_cleanly(tmp_path, command, extra, key, missing_file):
    missing = tmp_path / "nope"
    cfg = write_config(tmp_path / "cfg.json", {**extra, key: str(missing)})
    proc = run_cli(cfg, tmp_path / "out", command)
    target = missing if missing_file is None else missing / missing_file
    assert_clean_error(proc, f"Error: cannot read {target}: No such file or directory")


def write_sample_dir(directory: Path, sidecar: str) -> None:
    directory.mkdir()
    np.save(directory / "samples.npy", np.array([[0.5, 1.5], [-0.5, 1.0]]))
    (directory / "samples.json").write_text(sidecar)


def write_model_dir(directory: Path, sidecar: str, edges: str = "3 1\n0 1\n", edge_values=(0.2,)) -> None:
    directory.mkdir()
    (directory / "graph.edges").write_text(edges)
    np.savez(directory / "precision.npz", diagonal=np.ones(3), edge_values=np.array(edge_values))
    (directory / "model.json").write_text(sidecar)


@pytest.mark.parametrize("kind, sidecar, message", [
    ("samples", '{"p": 2, "seed": 0}', "samples.json is missing the required key 'n'"),
    ("samples", '[2, 2, 0]', "samples.json must hold a JSON object, got list"),
    ("samples", '{"n": "2", "p": 2, "seed": 0}', "samples.json key 'n' must be int, got str '2'"),
    ("samples", '{"n": 2, "p": 2, "seed": null}', "samples.json key 'seed' must be int, got NoneType None"),
    ("samples", '{"n": 2, "p": 2, "seed": 0, "meta": []}', "samples.json key 'meta' must be dict, got list []"),
    ("model", '[]', "model.json must hold a JSON object, got list"),
    ("model", '{"meta": 3}', "model.json key 'meta' must be dict, got int 3"),
], ids=["samples-no-n", "samples-list", "samples-n-str", "samples-seed-null", "samples-meta-list", "model-list",
        "model-meta-int"])
def test_malformed_sidecar_fails_cleanly(tmp_path, kind, sidecar, message):
    directory = tmp_path / kind
    if kind == "samples":
        write_sample_dir(directory, sidecar)
        cfg = write_config(tmp_path / "cfg.json", {"samples": str(directory)})
        command = "learn"
    else:
        write_model_dir(directory, sidecar)
        cfg = write_config(tmp_path / "cfg.json", {"model": str(directory), "n": 5})
        command = "sample"
    proc = run_cli(cfg, tmp_path / "out", command)
    assert_clean_error(proc, f"Error: {directory}/{message}")


def test_non_finite_precision_fails_cleanly(tmp_path):
    directory = tmp_path / "model"
    write_model_dir(directory, "{}", "3 2\n0 1\n1 2\n", (0.2, np.nan))
    cfg = write_config(tmp_path / "cfg.json", {"model": str(directory), "estimator": {"eta": 1, "exact_mode": True}})
    proc = run_cli(cfg, tmp_path / "out")
    assert_clean_error(proc, "Error: precision matrix entry (1, 2) is nan, not finite\n")


def write_truncated_npy(path: Path) -> None:
    np.save(path, np.array([[0.5, 1.5], [-0.5, 1.0]]))
    path.write_bytes(path.read_bytes()[:-8])


def write_text(path: Path) -> None:
    path.write_text("0.5,1.5\n")


def write_zip_as_npy(path: Path) -> None:
    np.savez(path.with_suffix(".npz"), np.array([[0.5, 1.5], [-0.5, 1.0]]))
    path.with_suffix(".npz").rename(path)


def write_truncated_zip_as_npy(path: Path) -> None:
    write_zip_as_npy(path)
    path.write_bytes(path.read_bytes()[:-40])


@pytest.mark.parametrize("write, message", [
    (None, "samples.npy is missing; samples.csv is no longer read; convert with python -c "
           "\"import numpy as np; np.save("),
    (write_truncated_npy, "samples.npy is not a valid .npy array: "),
    (write_text, "samples.npy is not a valid .npy array: it starts with b'0.5,1.', not b'\\x93NUMPY'"),
    (write_zip_as_npy, "samples.npy is a NpzFile archive, not a .npy array"),
    (write_truncated_zip_as_npy, "samples.npy is not a valid .npy array: "),
    (lambda path: np.save(path, np.array([[0.5, "x"]], dtype=object)),
     "samples.npy is not a valid .npy array: Object arrays cannot be loaded when allow_pickle=False"),
    (lambda path: np.save(path, np.array([0.5, 1.5])), "samples.npy must hold a 2-D float64 array, got a 1-D float64"),
    (lambda path: np.save(path, np.array([[1, 2], [3, 4]], dtype=np.int64)),
     "samples.npy must hold a 2-D float64 array, got a 2-D int64"),
    (lambda path: np.save(path, np.zeros((3, 2))), "sample sidecar declares shape (2, 2) but data is (3, 2)"),
], ids=["legacy-csv-only", "truncated", "text", "zip-archive", "truncated-zip-archive", "pickled-objects",
        "one-dimensional", "int64", "shape-mismatch"])
def test_malformed_sample_matrix_fails_cleanly(tmp_path, write, message):
    directory = tmp_path / "samples"
    directory.mkdir()
    (directory / "samples.json").write_text(json.dumps({"n": 2, "p": 2, "seed": 0}))
    if write is None:
        (directory / "samples.csv").write_text("2\n0.5,1.5\n-0.5,1.0\n")
    else:
        write(directory / "samples.npy")
    cfg = write_config(tmp_path / "cfg.json", {"samples": str(directory)})
    proc = run_cli(cfg, tmp_path / "out")
    prefix = "Error: " if message.startswith("sample sidecar") else f"Error: {directory}/"
    assert_clean_error(proc, prefix + message)
    assert proc.stderr.count("\n") == 1  # one line
    if write is write_text:
        assert "pickle" not in proc.stderr


def rewrite_npz(**changes):
    """A writer that replaces arrays of a saved npz archive; None drops one."""
    def write(path: Path) -> None:
        with np.load(path) as archive:
            arrays = {**archive, **changes}
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return write


def write_truncated_npz(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:-40])


@pytest.mark.parametrize("write, message", [
    (Path.unlink, "pairs.npz is missing"),
    (write_text, "pairs.npz is not a valid npz archive: "),
    (write_truncated_npz, "pairs.npz is not a valid npz archive: "),
    (lambda path: np.save(path.with_suffix(".npy"), np.zeros(6)) or path.with_suffix(".npy").rename(path),
     "pairs.npz is a .npy array, not an npz archive"),
    (rewrite_npz(values=np.array([0.5, "x", 0, 0, 0, 0], dtype=object)),
     "pairs.npz array 'values' is not valid: "),
    (rewrite_npz(sets=None), "pairs.npz is missing the array 'sets'"),
    (rewrite_npz(status=np.zeros(6, dtype=np.int64)),
     "pairs.npz array 'status' must be a 1-D int8 array, got a 1-D int64 array"),
    (rewrite_npz(values=np.zeros((6, 1))),
     "pairs.npz array 'values' must be a 1-D float64 array, got a 2-D float64 array"),
    (rewrite_npz(set_index=np.zeros(5, dtype=np.int64)),
     "pairs.npz array 'set_index' has 5 entries, but p=4 has 6 pairs"),
    (rewrite_npz(set_index=np.array([0, 0, 0, 0, 0, -2])),
     "pairs.npz array 'set_index' has an entry outside [-1, 1)"),
    (rewrite_npz(status=np.array([0, 0, 0, 0, 0, 3], dtype=np.int8)),
     "pairs.npz array 'status' has an entry outside [0, 3)"),
], ids=["missing", "text", "truncated", "npy-array", "object-array", "missing-key", "int64-status", "two-dimensional",
        "short", "set-index-range", "status-range"])
def test_malformed_result_pairs_fail_cleanly(tmp_path, write, message):
    data = np.random.default_rng(3).standard_normal((50, 4))
    save_result(cmit(data, EstimatorConfig(eta=0)), tmp_path)
    write(tmp_path / "pairs.npz")
    with pytest.raises(InvalidParameter) as info:
        load_result(tmp_path)
    # numpy's own reason, after the colon, varies with its version
    assert str(info.value).startswith(f"{tmp_path}/{message}")
    assert message.endswith(": ") or str(info.value) == f"{tmp_path}/{message}"
    # the console entry point prints it on one line, as for a subcommand
    with mock.patch("ggmlearn.cli.main", lambda standalone_mode: load_result(tmp_path)):
        proc = run_cli("learn.json", tmp_path / "out")
    assert_clean_error(proc, f"Error: {info.value}\n")
    if write is write_text:
        assert "pickle" not in proc.stderr


def test_result_json_listing_every_pair_is_no_longer_read(tmp_path):
    # the record written before pairs.npz: the header and every pair's
    # record under "pairs", indented, and no pair arrays
    result = cmit(np.random.default_rng(3).standard_normal((50, 4)), EstimatorConfig(eta=0))
    summary = result.summary()
    header = {k: v for k, v in summary.items() if k not in ("edge_records", "status_counts")}
    pairs = {f"{u},{v}": {"value": d.value, "subset": list(d.subset), "status": d.status}
             for (u, v), d in result.pairs.items()}
    (tmp_path / "result.json").write_text(json.dumps({**header, "pairs": pairs}, indent=2, sort_keys=True) + "\n")
    with mock.patch("ggmlearn.cli.main", lambda standalone_mode: load_result(tmp_path)):
        proc = run_cli("learn.json", tmp_path / "out")
    assert_clean_error(proc, f"Error: {tmp_path / 'pairs.npz'} is missing\n")


def test_legacy_sample_conversion_command_runs(tmp_path):
    directory = tmp_path / "samples"
    directory.mkdir()
    (directory / "samples.csv").write_text("2\n0.5,1.5\n-0.5,1.0\n")
    (directory / "samples.json").write_text(json.dumps({"n": 2, "p": 2, "seed": 0}))
    cfg = write_config(tmp_path / "cfg.json", {"samples": str(directory)})
    stderr = run_cli_subprocess(cfg, tmp_path / "out").stderr
    code = stderr[stderr.index("python -c ") + len("python -c "):].strip().strip('"')
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env(), timeout=60)
    assert np.array_equal(load_samples(directory).data, [[0.5, 1.5], [-0.5, 1.0]])


def test_legacy_model_conversion_command_runs(tmp_path):
    # the directory as earlier versions wrote it: J in full as %.17g text,
    # here with the rounding asymmetry that loading averages away
    model = synthesize_model(cycle_graph(7), 0.7, sign_pattern="random", diagonal=3.0, seed=4)
    directory = tmp_path / "model"
    save_model(model, directory)
    (directory / "precision.npz").unlink()
    j = np.array(model.precision)
    j[0, 1] = np.nextafter(np.nextafter(j[0, 1], 0.0), 0.0)  # two ulps, so the mean is neither entry
    np.savetxt(directory / "precision.csv", j, fmt="%.17g", delimiter=",", header="7", comments="")
    want = GaussianModel(model.graph, j).precision  # what earlier versions loaded
    assert want.tobytes() != model.precision.tobytes()
    cfg = write_config(tmp_path / "cfg.json", {"model": str(directory), "n": 5})
    stderr = run_cli_subprocess(cfg, tmp_path / "out", "sample").stderr
    assert stderr.startswith(f"Error: {directory / 'precision.npz'} is missing; precision.csv is no longer read; "
                             "convert with python -c ")
    assert len(stderr.splitlines()) == 1
    code = stderr[stderr.index("python -c ") + len("python -c "):].strip().strip('"')
    subprocess.run([sys.executable, "-c", code], check=True, env=src_env(), timeout=60)
    assert load_model(directory).precision.tobytes() == want.tobytes()


@pytest.mark.parametrize("write, message", [
    (lambda path: path.rename(path.with_suffix(".csv")),
     "precision.npz is missing; precision.csv is no longer read; convert with python -c \"import numpy as np; "),
    (Path.unlink, "cannot read {path}: No such file or directory"),
    (write_text, "precision.npz is not a valid npz archive: it starts with b'0.5,1.', not b'PK'"),
    (write_truncated_npz, "precision.npz is not a valid npz archive: "),
    (lambda path: np.save(path.with_suffix(".npy"), np.ones(3)) or path.with_suffix(".npy").rename(path),
     "precision.npz is a .npy array, not an npz archive"),
    (rewrite_npz(edge_values=None), "precision.npz is missing the array 'edge_values'"),
    (rewrite_npz(diagonal=np.ones(3, dtype=np.float32)),
     "precision.npz array 'diagonal' must be a 1-D float64 array, got a 1-D float32 array"),
    (rewrite_npz(edge_values=np.array([[0.2]])),
     "precision.npz array 'edge_values' must be a 1-D float64 array, got a 2-D float64 array"),
    (rewrite_npz(diagonal=np.ones(4)), "precision.npz array 'diagonal' has 4 entries, but {edges} needs 3"),
    (rewrite_npz(edge_values=np.array([0.2, 0.1])),
     "precision.npz array 'edge_values' has 2 entries, but {edges} needs 1"),
    (rewrite_npz(edge_values=np.array([0.2, "x"], dtype=object)), "precision.npz array 'edge_values' is not valid: "),
], ids=["legacy-csv-only", "missing", "text", "truncated", "npy-array", "missing-key", "float32", "two-dimensional",
        "long-diagonal", "long-edge-values", "object-array"])
def test_malformed_precision_fails_cleanly(tmp_path, write, message):
    directory = tmp_path / "model"
    write_model_dir(directory, "{}")
    path = directory / "precision.npz"
    write(path)
    cfg = write_config(tmp_path / "cfg.json", {"model": str(directory), "n": 5})
    proc = run_cli(cfg, tmp_path / "out", "sample")
    message = message.format(path=path, edges=directory / "graph.edges")
    assert_clean_error(proc, "Error: " + (message if message.startswith("cannot") else f"{directory}/{message}"))
    if write is write_text:
        assert "pickle" not in proc.stderr


@pytest.mark.parametrize("edges, message", [
    ("five 4\n", "bad edge list header 'five 4'; expected '<p> <count>'"),
    ("five\n", "bad edge list header 'five'; expected '<p> <count>'"),
    ("3 1\n0 x\n", "bad edge line '0 x'; expected 'u v'"),
    ("3 1\n0 1 2\n", "bad edge line '0 1 2'; expected 'u v'"),
], ids=["header", "header-one-field", "edge-line", "edge-line-three-fields"])
def test_non_integer_edge_list_fails_cleanly(tmp_path, edges, message):
    write_model_dir(tmp_path / "model", "{}", edges)
    cfg = write_config(tmp_path / "cfg.json", {"model": str(tmp_path / "model"), "n": 5})
    assert_clean_error(run_cli(cfg, tmp_path / "out", "sample"), f"Error: {message}")


@pytest.mark.parametrize("command, payload, message", [
    ("sweep", {"configs": [{"ensemble": CHAIN, "estimator": {"eta": "2"}}]},
     "EstimatorConfig block key 'eta' must be int, got str '2'"),
    ("sweep", {"configs": [{"ensemble": {"kind": "chain", "p": "6"}}]},
     "EnsembleConfig block key 'p' must be int | None, got str '6'"),
    ("sweep", {"configs": [{"ensemble": CHAIN, "n": True}]}, "TrialConfig block key 'n' must be int, got bool True"),
    ("sweep", {"configs": [{"ensemble": {"kind": "explicit", "p": 3, "edges": [[0, 1, 2]]}}]},
     "EnsembleConfig block key 'edges' must be tuple[tuple[int, int], ...] | None, got list [[0, 1, 2]]"),
    ("learn", {"samples": "unused", "estimator": {"xi": "0.1"}},
     "EstimatorConfig block key 'xi' must be float | None, got str '0.1'"),
    ("bounds", {"p": 50, "c": 2.0, "alpha": False}, "BoundsConfig block key 'alpha' must be float, got bool False"),
    ("bounds", {"p": 50.0, "c": 2.0, "alpha": 0.5}, "BoundsConfig block key 'p' must be int, got float 50.0"),
    ("bounds", {"p": [64, "x"], "c": 2.0, "alpha": 0.5}, "BoundsConfig block key 'p' must be int, got str 'x'"),
    ("synthesize", {"ensemble": CHAIN, "target_alpha": "0.5"},
     "configuration key 'target_alpha' must be float, got str '0.5'"),
    ("synthesize", {"ensemble": CHAIN, "target_alpha": 0.5, "sign_pattern": 1},
     "configuration key 'sign_pattern' must be str, got int 1"),
    ("synthesize", {"ensemble": CHAIN, "target_alpha": 0.5, "diagonal": "2"},
     "configuration key 'diagonal' must be float, got str '2'"),
    ("synthesize", {"ensemble": CHAIN, "target_alpha": 0.5, "seed": 1.5},
     "configuration key 'seed' must be int, got float 1.5"),
    ("lbp", {"model": "unused", "tol": "x"}, "configuration key 'tol' must be float, got str 'x'"),
    ("lbp", {"model": "unused", "max_iters": 2.5}, "configuration key 'max_iters' must be int, got float 2.5"),
    ("lbp", {"model": "unused", "h": "x"}, "configuration key 'h' must be tuple[float, ...], got str 'x'"),
    ("sample", {"model": "unused", "n": "10"}, "configuration key 'n' must be int, got str '10'"),
    ("sample", {"model": "unused", "n": 10, "seed": "3"}, "configuration key 'seed' must be int, got str '3'"),
    ("generate", {"kind": "chain", "p": 6, "seed": 1.5}, "configuration key 'seed' must be int, got float 1.5"),
    ("sweep", {"configs": [], "include_fano": "yes"},
     "configuration key 'include_fano' must be bool, got str 'yes'"),
], ids=["estimator-eta-str", "ensemble-p-str", "trial-n-bool", "ensemble-edge-triple", "learn-xi-str",
        "bounds-alpha-bool", "bounds-p-float", "bounds-grid-p-str", "synthesize-target-alpha-str",
        "synthesize-sign-pattern-int", "synthesize-diagonal-str", "synthesize-seed-float", "lbp-tol-str",
        "lbp-max-iters-float", "lbp-h-str", "sample-n-str", "sample-seed-str", "generate-seed-float",
        "sweep-include-fano-str"])
def test_config_value_type_errors_fail_cleanly(tmp_path, command, payload, message):
    cfg = write_config(tmp_path / "cfg.json", payload)
    proc = run_cli(cfg, tmp_path / "out", command)
    assert_clean_error(proc, f"Error: {message}")


@pytest.mark.parametrize("estimator, message", [
    ({"cond_limit": 0.5}, "cond_limit must be at least 1, got 0.5"),
    ({"xi": float("nan")}, "threshold must be nonnegative, got nan"),
    ({"kappa": float("inf")}, "kappa must be finite, got inf"),
], ids=["cond-limit-below-one", "xi-nan", "kappa-inf"])
def test_invalid_estimator_value_fails_cleanly(tmp_path, estimator, message):
    cfg = write_config(tmp_path / "cfg.json", {"samples": "unused", "estimator": estimator})
    proc = run_cli(cfg, tmp_path / "out")
    assert_clean_error(proc, f"Error: {message}")
    assert proc.stderr.count("\n") == 1  # one line


def test_config_accepts_json_integers_for_floats_and_arrays_for_tuples(runner, tmp_path):
    edges = [[0, 1], [1, 2], [2, 3], [3, 0]]
    cfg = write_config(tmp_path / "sweep.json", {"configs": [{
        "ensemble": {"kind": "explicit", "p": 4, "edges": edges}, "diagonal": 1, "n": 50, "trials": 1,
        "estimator": {"xi": 1, "kappa": 2}}]})
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
