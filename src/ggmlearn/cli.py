"""Command line interface.

Every subcommand reads a JSON configuration, writes its artifacts into the
output directory, and drops a ``manifest.json`` recording the tool
version, the SHA-256 of the configuration, and the effective seed, so a
results directory is self-describing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .bounds import BoundsConfig, bounds_report
from .errors import GgmError, InvalidParameter, check_type
from .estimator import EstimatorConfig, cmit
from .graph import EnsembleConfig
from .harness import LANE_SIGNS, TrialConfig, lane_seed, run_manifest, sweep
from .io import (
    load_model,
    load_samples,
    read_edge_list,
    save_model,
    save_result,
    save_samples,
    write_edge_list,
    write_json,
)
from .lbp import LBP_MAX_ITERS, LBP_TOL, lbp_run
from .model import synthesize_model
from .sampler import sample


class _Config(dict):
    """A parsed configuration whose missing required keys are reported as
    InvalidParameter, not KeyError."""

    def __missing__(self, key):
        raise InvalidParameter(f"configuration is missing the required key {key!r}")


def _read_config(path: str, allow_list: bool = False):
    """Parse a JSON configuration file, which must hold an object (or, with
    ``allow_list``, a list).  Unreadable files, malformed JSON and other
    top-level values raise InvalidParameter."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"configuration {path} is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        return _Config(data)
    if allow_list and isinstance(data, list):
        return data
    raise InvalidParameter(f"configuration {path} must hold a JSON object, got {type(data).__name__}")


def _typed(config, key: str, hint, default=...):
    """``config[key]``, or ``default`` when the key is absent and a default
    is given, checked against ``hint`` like a configuration block value."""
    if key not in config and default is not ...:
        return default
    check_type(f"configuration key {key!r}", config[key], hint)
    return config[key]


def _out_dir(path: str) -> Path:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_manifest(out: Path, command: str, config: dict, seed) -> None:
    write_json(run_manifest(command, config, seed), out / "manifest.json")


def common_options(fn):
    fn = click.option("--config", "config_path", required=True, type=click.Path(exists=True),
                      help="JSON configuration file.")(fn)
    fn = click.option("--out", "out_path", required=True, type=click.Path(),
                      help="Output directory; created if missing.")(fn)
    fn = click.option("--seed", type=int, default=None, help="Override the configured seed.")(fn)
    return fn


def format_option(fn):
    """``--format`` for the commands that write a table: bounds and sweep."""
    return click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                        show_default=True, help="Tabular output format.")(fn)


@click.group()
@click.version_option(__version__, prog_name="ggmlearn")
def main():
    """Structure learning for walk-summable Gaussian graphical models."""


@main.command()
@common_options
def generate(config_path, out_path, seed):
    """Draw a graph from an ensemble and write its edge list."""
    config = _read_config(config_path)
    ensemble = EnsembleConfig.from_dict({k: v for k, v in config.items() if k != "seed"})
    effective_seed = seed if seed is not None else _typed(config, "seed", int, 0)
    graph = ensemble.build(effective_seed)
    out = _out_dir(out_path)
    write_edge_list(graph, out / "graph.edges")
    _write_manifest(out, "generate", config, effective_seed)
    click.echo(f"wrote graph with p={graph.p}, {graph.n_edges} edges to {out}")


@main.command()
@common_options
def synthesize(config_path, out_path, seed):
    """Build a model on a graph with a target walk-summability number."""
    config = _read_config(config_path)
    effective_seed = seed if seed is not None else _typed(config, "seed", int, 0)
    if "graph" in config:
        graph = read_edge_list(_typed(config, "graph", str))
    else:
        graph = EnsembleConfig.from_dict(config["ensemble"]).build(effective_seed)
    model = synthesize_model(
        graph,
        _typed(config, "target_alpha", float),
        sign_pattern=_typed(config, "sign_pattern", str, "attractive"),
        diagonal=_typed(config, "diagonal", float, 1.0),
        seed=lane_seed(effective_seed, 0, LANE_SIGNS),
    )
    out = _out_dir(out_path)
    save_model(model, out)
    _write_manifest(out, "synthesize", config, effective_seed)
    click.echo(f"wrote model with p={model.p}, alpha={model.alpha:.6f} to {out}")


@main.command(name="sample")
@common_options
def sample_cmd(config_path, out_path, seed):
    """Draw i.i.d. samples from a saved model."""
    config = _read_config(config_path)
    n = _typed(config, "n", int)
    effective_seed = seed if seed is not None else _typed(config, "seed", int, 0)
    samples = sample(load_model(_typed(config, "model", str)), n, effective_seed)
    out = _out_dir(out_path)
    save_samples(samples, out)
    _write_manifest(out, "sample", config, effective_seed)
    click.echo(f"wrote {samples.n} samples of dimension {samples.p} to {out}")


@main.command()
@common_options
def learn(config_path, out_path, seed):
    """Estimate a graph from samples (or from a model in exact mode)."""
    config = _read_config(config_path)
    est_cfg = EstimatorConfig.from_dict(config.get("estimator", {}))
    if est_cfg.exact_mode:
        source = load_model(_typed(config, "model", str))
    else:
        source = load_samples(_typed(config, "samples", str))
    result = cmit(source, est_cfg)
    out = _out_dir(out_path)
    stopped = save_result(result, out)["status_counts"]["early_exit"]
    write_edge_list(result.graph, out / "estimate.edges")
    _write_manifest(out, "learn", config, seed)
    clause = f"; {stopped} of {len(result.status)} pairs stopped early (values are upper bounds)" if stopped else ""
    click.echo(f"estimated {len(result.edges)} edges at threshold {result.threshold:.6g}{clause}")


@main.command(name="lbp")
@common_options
def lbp_cmd(config_path, out_path, seed):
    """Run belief propagation on a saved model."""
    config = _read_config(config_path)
    h = _typed(config, "h", tuple[float, ...], None)
    tol = _typed(config, "tol", float, LBP_TOL)
    max_iters = _typed(config, "max_iters", int, LBP_MAX_ITERS)
    model = load_model(_typed(config, "model", str))
    result = lbp_run(model, h=h, tol=tol, max_iters=max_iters)
    out = _out_dir(out_path)
    write_json(
        {
            "converged": result.converged,
            "breakdown": result.breakdown,
            "iterations": result.iterations,
            "final_change": result.final_change,
            "variances": result.variances.tolist(),
            "means": result.means.tolist(),
        },
        out / "lbp.json",
    )
    _write_manifest(out, "lbp", config, seed)
    status = "converged" if result.converged else ("breakdown" if result.breakdown else "not converged")
    click.echo(f"belief propagation {status} after {result.iterations} iterations")


@main.command(name="bounds")
@common_options
@format_option
def bounds_cmd(config_path, out_path, seed, fmt):
    """Evaluate sample-size bounds; a list-valued p produces a grid."""
    config = _read_config(config_path)
    p_values = config["p"] if isinstance(config["p"], list) else [config["p"]]
    fields = {k: config[k] for k in ("c", "alpha", "epsilon", "distortion") if k in config}
    reports = [
        bounds_report(BoundsConfig.from_dict({**fields, "p": p})) for p in p_values
    ]
    out = _out_dir(out_path)
    write_json([r.to_dict() for r in reports], out / "bounds.json")
    if fmt == "csv" and len(reports) > 1:
        lines = ["p,c,alpha,epsilon,distortion,n_exact,n_simplified,n_distortion,rate,atypical_bound"]
        for r in reports:
            cfg = r.config
            lines.append(
                f"{cfg.p},{cfg.c:.17g},{cfg.alpha:.17g},{cfg.epsilon:.17g},{cfg.distortion:.17g},"
                f"{r.n_exact:.17g},{r.n_simplified:.17g},{r.n_distortion:.17g},"
                f"{r.rate:.17g},{r.atypical_bound:.17g}"
            )
        (out / "bounds.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "bounds", config, seed)
    click.echo(f"wrote {len(reports)} bound report(s) to {out}")


@main.command(name="sweep")
@common_options
@format_option
def sweep_cmd(config_path, out_path, seed, fmt):
    """Run a grid of trial configurations and tabulate error rates."""
    config = _read_config(config_path, allow_list=True)
    entries = _typed(config, "configs", list) if isinstance(config, dict) else config
    include_fano = _typed(config, "include_fano", bool, False) if isinstance(config, dict) else False
    trial_configs = []
    for entry in entries:
        if seed is not None and isinstance(entry, dict):
            entry = {**entry, "seed": seed}
        trial_configs.append(TrialConfig.from_dict(entry))
    result = sweep(trial_configs, include_fano=include_fano)
    out = _out_dir(out_path)
    if fmt == "csv":
        (out / "sweep.csv").write_text(result.to_csv())
    else:
        write_json(result.to_dicts(), out / "sweep.json")
    _write_manifest(out, "sweep", config, seed)
    click.echo(f"wrote sweep with {len(result.rows)} rows to {out}")


def run():
    """Console entry point: a package error ends the run with a one-line
    message on standard error and exit status 1, not a traceback."""
    try:
        main(standalone_mode=True)
    except GgmError as exc:
        click.echo(f"Error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
