"""The benchmark's three workloads, built from a seed.

Each workload is a fixed list of ops that one caller runs one after
another (a closed loop with a single client).  Setup builds every input
from the seed; an op is one call into ggmlearn's public API, and its check
compares the output with an independent reference (``reference.py``) or a
reference recorded at the commit that introduced the benchmark.

Why these three:

* ``mc-sweep`` is the paper's Monte Carlo experiment.  The eta = 1 scan
  and model synthesis (bisection over power iterations, mostly on the
  chain) take most of the time; graph drawing, sampling, bounds and the
  harness each take a small, separate share.
* ``learn-cli`` learns graphs from saved samples through the CLI, the way a
  user runs it.  The inputs are built here, not by ggmlearn, so synthesis
  or sampler changes cannot move them.  The scan does most of the work and
  every scan path runs (eta 1, 2 and 3, both statistics, full minima);
  CSV parsing and JSON writing make up most of the rest.
* ``oracle-bp`` analyses exact models with no sampling: loading given
  precision matrices, the oracle gap, exact-mode estimation, local
  separators (Python max-flow) and dense-message belief propagation.  The
  chain loads at p = 300 and 400 hit the known power-iteration failure;
  they stay in the list so that fixing it shows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import ggmlearn as g
from ggmlearn import cli, harness, io

import reference as ref

WORKLOADS = ("mc-sweep", "learn-cli", "oracle-bp")


@dataclass
class Op:
    """One call into the program.

    ``check`` returns None when the output is right, else a message.
    ``known_defect`` names the exception a documented defect raises on this
    op; that outcome is reported apart from failures.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    trials: int = 0
    known_defect: type | None = None


@dataclass
class Workload:
    ops: list[Op]
    notes: dict = field(default_factory=dict)


SIZES = {
    "full": {
        "mc-sweep": {"trials": 5, "chain": 60, "regular": 100, "cycle": 80, "smallworld": 100,
                     "n": (1000, 2000, 2000, 4000)},
        "learn-cli": {"er": (90, 150), "cycle": 13, "n": (5000, 5000, 4000)},
        "oracle-bp": {"chains": (100, 200, 300, 400), "defect_from": 300, "torus_load": 20,
                      "torus_gap": 8, "torus_sep": 10, "lbp_er": 1000, "lbp_chain": 200},
    },
    "tiny": {
        "mc-sweep": {"trials": 1, "chain": 12, "regular": 12, "cycle": 12, "smallworld": 16,
                     "n": (300, 300, 300, 300)},
        "learn-cli": {"er": (12, 15), "cycle": 8, "n": (400, 400, 400)},
        "oracle-bp": {"chains": (10, 20), "defect_from": 10**9, "torus_load": 4,
                      "torus_gap": 4, "torus_sep": 4, "lbp_er": 30, "lbp_chain": 20},
    },
}

TARGET_ALPHA = 0.5

# Random-stream lanes of a workload seed (see reference.rng).
LANE_GRAPH = 0
LANE_NOISE = 16


def build(workload: str, seed: int, size: str, workdir: Path) -> Workload:
    builders = {"mc-sweep": _mc_sweep, "learn-cli": _learn_cli, "oracle-bp": _oracle_bp}
    return builders[workload](seed, size, SIZES[size][workload], workdir)


def _mc_sweep(seed: int, size: str, s: dict, workdir: Path) -> Workload:
    est = g.EstimatorConfig(eta=1)
    mi = g.EstimatorConfig(eta=1, statistic="mutual_information")
    chain = np.eye(s["chain"], k=1) + np.eye(s["chain"], k=-1)
    # (label, ensemble, estimator, signs, mean degree for the Fano bound,
    # lambda_max of the adjacency when every trial's graph shares it).  With
    # unit diagonal every edge has |J| = rho = target / lambda_max.
    specs = [
        ("chain", g.EnsembleConfig("chain", p=s["chain"]), est, "attractive",
         2 * (s["chain"] - 1) / s["chain"], float(np.linalg.eigvalsh(chain)[-1])),
        ("regular", g.EnsembleConfig("regular", p=s["regular"], delta=3), est, "attractive", 3.0, 3.0),
        ("cycle", g.EnsembleConfig("cycle", p=s["cycle"]), mi, "alternating", 2.0, 2.0),
        ("smallworld", g.EnsembleConfig("smallworld", p=s["smallworld"], d=1, c=1.0), est, "random",
         3.0, None),
    ]
    trials = s["trials"]
    recorded = ref.recorded(size, seed, "mc-sweep")
    if recorded is not None:
        expected = recorded["p_err"]
    else:
        # Unrecorded seed: the mean over recorded seeds stands in for the
        # expected error rate; the tolerance below covers the seed-to-seed
        # spread of a Monte Carlo estimate.
        runs = [r["p_err"] for r in ref.recorded_all(size, "mc-sweep")]
        expected = [sum(col) / len(col) for col in zip(*runs)] if runs else None
    tolerance = 2.0 / math.sqrt(trials)

    ops = []
    for k, (label, ensemble, est_cfg, signs, degree, lam) in enumerate(specs):
        config = harness.TrialConfig(
            ensemble=ensemble,
            estimator=est_cfg,
            target_alpha=TARGET_ALPHA,
            sign_pattern=signs,
            n=s["n"][k],
            trials=trials,
            seed=seed * len(specs) + k,
        )

        def check(result, k=k, p=ensemble.order, degree=degree, lam=lam):
            (row,) = result.rows
            if abs(row.alpha - TARGET_ALPHA) > 1e-6:
                return f"alpha {row.alpha!r} is not within 1e-6 of {TARGET_ALPHA}"
            if lam is not None and abs(row.j_min * lam - TARGET_ALPHA) > 1e-6:
                return f"j_min {row.j_min!r} gives alpha {row.j_min * lam!r}, not {TARGET_ALPHA}"
            fano = ref.fano_n_exact(p, degree, row.alpha)
            if not math.isclose(row.n_fano_exact, fano, rel_tol=1e-9):
                return f"Fano bound {row.n_fano_exact!r} differs from {fano!r}"
            if expected is not None and abs(row.p_err - expected[k]) > tolerance:
                return f"p_err {row.p_err} is not within {tolerance:.3f} of {expected[k]}"
            return None

        ops.append(Op(
            name=f"sweep-{label}",
            run=lambda config=config: harness.sweep([config], include_fano=True),
            check=check,
            trials=trials,
        ))
    return Workload(ops, {"p_err_reference": expected, "p_err_tolerance": tolerance})


def _learn_cli(seed: int, size: str, s: dict, workdir: Path) -> Workload:
    p1, p2 = s["er"]
    graphs = [
        ref.er_adjacency(p1, 3.0, ref.rng(seed, LANE_GRAPH)),
        ref.er_adjacency(p2, 3.0, ref.rng(seed, LANE_GRAPH + 1)),
        ref.cycle_adjacency(s["cycle"]),
    ]
    datasets = []
    for k, (adjacency, n) in enumerate(zip(graphs, s["n"])):
        precision = ref.scaled_precision(adjacency, TARGET_ALPHA)
        data = ref.gaussian_data(precision, n, ref.rng(seed, LANE_NOISE + k))
        directory = workdir / f"data{k}"
        io.save_samples(g.SampleSet(data=data, seed=seed), directory)
        datasets.append((data, directory))
    specs = [
        (0, 2, "covariance"),
        (0, 2, "mutual_information"),
        (1, 1, "covariance"),
        (1, 1, "mutual_information"),
        (2, 3, "covariance"),
    ]
    recorded = ref.recorded(size, seed, "learn-cli")
    ops = []
    for k, (data_idx, eta, statistic) in enumerate(specs):
        data, directory = datasets[data_idx]
        config_path = workdir / f"learn{k}.json"
        config_path.write_text(json.dumps(
            {"samples": str(directory), "estimator": {"eta": eta, "statistic": statistic}}
        ))
        out = workdir / f"out{k}"
        args = ["learn", "--config", str(config_path), "--out", str(out)]
        expected: dict = {}

        def run(args=args, out=out) -> Path:
            cli.main(args, standalone_mode=False)
            return out

        def check(out, k=k, data=data, eta=eta, statistic=statistic, expected=expected):
            if not expected:
                expected["edges"], expected["exempt"] = ref.learned_edges(data, eta, statistic)
            got = _read_edges(out / "estimate.edges")
            wrong = (got ^ expected["edges"]) - expected["exempt"]
            if wrong:
                return f"{len(wrong)} pairs differ from the reference scan, e.g. {sorted(wrong)[:3]}"
            if recorded is not None:
                pinned = {tuple(e) for e in recorded["edges"][k]}
                exempt = {tuple(e) for e in recorded["exempt"][k]}
                wrong = (got ^ pinned) - exempt
                if wrong:
                    return f"{len(wrong)} pairs differ from the recorded edges, e.g. {sorted(wrong)[:3]}"
            return None

        ops.append(Op(
            name=f"learn-p{data.shape[1]}-eta{eta}-{statistic}",
            run=run,
            check=check,
        ))
    return Workload(ops)


def _read_edges(path: Path) -> set[tuple[int, int]]:
    lines = path.read_text().split("\n")[1:]
    return {tuple(int(x) for x in ln.split()) for ln in lines if ln.strip()}


def _model(adjacency: np.ndarray, precision: np.ndarray):
    return g.GaussianModel(g.Graph(len(adjacency), ref.edges_of(adjacency)), precision)


def _oracle_bp(seed: int, size: str, s: dict, workdir: Path) -> Workload:
    ops = []

    def load_op(name, adjacency, precision, known_defect=None):
        graph = g.Graph(len(adjacency), ref.edges_of(adjacency))
        expected = ref.walk_alpha(precision)

        def check(model):
            if abs(model.alpha - expected) > 1e-6:
                return f"alpha {model.alpha!r} is not within 1e-6 of {expected!r}"
            return None

        return Op(name, lambda: g.GaussianModel(graph, precision), check, known_defect=known_defect)

    for p in s["chains"]:
        chain = np.eye(p, k=1) + np.eye(p, k=-1)
        defect = g.NumericFailure if p >= s["defect_from"] else None
        ops.append(load_op(f"load-chain{p}", chain, np.eye(p) - 0.3 * chain, defect))
    m = s["torus_load"]
    torus = g.torus_grid(m, 2).adjacency_matrix()
    ops.append(load_op(f"load-torus{m}x{m}", torus, np.eye(m * m) - 0.2 * torus))

    gap_adj = g.torus_grid(s["torus_gap"], 2).adjacency_matrix()
    gap_precision = ref.scaled_precision(gap_adj, 0.4)
    gap_model = _model(gap_adj, gap_precision)
    true_edges = set(ref.edges_of(gap_adj))
    state: dict = {}
    expected: dict = {}

    def run_gap():
        state["gap"] = g.oracle_gap(gap_model, 2, 2)
        return state["gap"]

    def check_gap(gap):
        if "c_min" not in expected:
            best = ref.min_statistics(np.linalg.inv(gap_precision), 2, "covariance")
            expected["c_min"] = min(best[u, v] for u, v in true_edges)
        if abs(gap.c_min - expected["c_min"]) > 1e-9:
            return f"c_min {gap.c_min!r} differs from the reference {expected['c_min']!r}"
        if not (gap.separable and gap.c_max < gap.c_min):
            return f"gap is not separable: c_max {gap.c_max!r}, c_min {gap.c_min!r}"
        return None

    def run_exact():
        xi = state["gap"].threshold_midpoint
        return g.cmit(gap_model, g.EstimatorConfig(eta=2, exact_mode=True, xi=xi))

    def check_exact(result):
        got = set(result.edges)
        if got != true_edges:
            return f"exact-mode edges differ from the true graph on {len(got ^ true_edges)} pairs"
        return None

    ops.append(Op("oracle-gap", run_gap, check_gap))
    ops.append(Op("cmit-exact", run_exact, check_exact))

    sep_graph = g.torus_grid(s["torus_sep"], 2)
    sep_adj = [list(sep_graph.neighbors(v)) for v in range(sep_graph.p)]
    verified: list = []

    def check_sep(profile):
        if profile.separators in verified:
            return None
        problems = ref.separator_errors(sep_adj, 3, profile.separators)
        if not problems and profile.eta != max(len(v) for v in profile.separators.values()):
            problems.append(f"eta {profile.eta} is not the largest separator size")
        if problems:
            return "; ".join(problems[:3])
        verified.append(profile.separators)
        return None

    ops.append(Op("separation-profile", lambda: g.separation_profile(sep_graph, 3), check_sep))

    p = s["lbp_er"]
    er_adj = ref.er_adjacency(p, 3.0, ref.rng(seed, LANE_GRAPH))
    er_precision = ref.scaled_precision(er_adj, 0.7)
    er_model = _model(er_adj, er_precision)
    h = ref.rng(seed, LANE_NOISE).standard_normal(p)
    ops.append(lbp_op(f"lbp-er{p}", er_model, er_precision, h, check_variances=False))

    p = s["lbp_chain"]
    chain = np.eye(p, k=1) + np.eye(p, k=-1)
    chain_precision = np.eye(p) - 0.45 * chain
    ops.append(lbp_op(f"lbp-chain{p}", _model(chain, chain_precision), chain_precision, h[:p],
                      check_variances=True))
    return Workload(ops)


def lbp_op(name, model, precision, h, check_variances: bool) -> Op:
    expected: dict = {}

    def check(result):
        if not expected:
            expected["means"] = np.linalg.solve(precision, h)
            expected["variances"] = np.diag(np.linalg.inv(precision))
        if not result.converged:
            return f"belief propagation did not converge in {result.iterations} iterations"
        err = float(np.max(np.abs(result.means - expected["means"])))
        if err > 1e-8:
            return f"means are {err:.3e} from the dense solve"
        if check_variances:
            err = float(np.max(np.abs(result.variances - expected["variances"])))
            if err > 1e-8:
                return f"tree variances are {err:.3e} from diag(Sigma)"
        return None

    return Op(name, lambda: g.lbp_run(model, h), check)
