"""Text formats shared by the CLI and the library: edge lists, matrix CSV,
JSON helpers.

Edge list: first line ``<p> <edge-count>``, then one ``u v`` line per edge
with u < v, lines sorted.  Matrix CSV: first line ``<p>``, then p rows of p
comma-separated values written by ``np.savetxt(fmt="%.17g")`` (the bytes of
``f"{x:.17g}"``) and read by ``np.loadtxt``, so float64 values round-trip
exactly; unlike ``float``, the reader rejects underscore literals (``1_0``).

The readers raise InvalidParameter naming the path when a file cannot be
read or, for JSON, parsed.
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import numpy as np

from .errors import InvalidParameter
from .graph import Graph


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.p} {g.n_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph, path) -> None:
    Path(path).write_text(format_edge_list(g))


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameter("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidParameter(f"bad edge list header {lines[0]!r}; expected '<p> <count>'")
    p, count = int(head[0]), int(head[1])
    if count != len(lines) - 1:
        raise InvalidParameter(f"edge list declares {count} edges but has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidParameter(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise InvalidParameter(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    if edges != sorted(edges):
        raise InvalidParameter("edge lines must be sorted")
    return Graph(p, edges)


def read_edge_list(path) -> Graph:
    return parse_edge_list(_read_text(path))


def format_matrix_csv(m: np.ndarray) -> str:
    buf = io.StringIO()
    write_matrix_csv(m, buf)
    return buf.getvalue()


def write_matrix_csv(m: np.ndarray, path) -> None:
    """Write a matrix file to ``path``, a file path or a text stream."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidParameter("matrix must be 2-dimensional")
    np.savetxt(path, m, fmt="%.17g", delimiter=",", header=str(m.shape[0]), comments="")


def parse_matrix_csv(text: str) -> np.ndarray:
    """Parse a matrix file whose header line declares the row count: a
    square p x p model matrix or a rectangular n x p sample matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise InvalidParameter("matrix file has no rows")
    try:
        nrows = int(lines[0])
    except ValueError as exc:
        raise InvalidParameter(f"bad matrix header {lines[0]!r}; expected the row count") from exc
    if len(lines) - 1 != nrows:
        raise InvalidParameter(f"matrix file declares {nrows} rows but has {len(lines) - 1}")
    try:
        return np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise InvalidParameter(f"malformed matrix file: {exc}") from exc


def read_matrix_csv(path) -> np.ndarray:
    return parse_matrix_csv(_read_text(path))


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc


def config_hash(obj) -> str:
    """Stable SHA-256 over the canonical JSON form of a configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_model(model, directory) -> None:
    """Write a model directory: graph.edges, precision.csv, model.json."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_edge_list(model.graph, d / "graph.edges")
    write_matrix_csv(model.precision, d / "precision.csv")
    j_min = model.j_min
    write_json(
        {
            "p": model.p,
            "alpha": model.alpha,
            "j_min": None if j_min == float("inf") else j_min,
            "j_max": model.j_max,
            "d_min": model.d_min,
            "meta": model.meta,
        },
        d / "model.json",
    )


def load_model(directory):
    from .model import GaussianModel

    d = Path(directory)
    graph = read_edge_list(d / "graph.edges")
    precision = read_matrix_csv(d / "precision.csv")
    meta = read_json(d / "model.json").get("meta", {})
    return GaussianModel(graph, precision, meta=meta)


def save_samples(samples, directory) -> None:
    """Write a sample directory: samples.csv plus a provenance sidecar."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(samples.data, d / "samples.csv")
    write_json(
        {"n": samples.n, "p": samples.p, "seed": samples.seed, "meta": samples.meta},
        d / "samples.json",
    )


def load_samples(directory):
    from .sampler import SampleSet

    d = Path(directory)
    data = read_matrix_csv(d / "samples.csv")
    sidecar = read_json(d / "samples.json")
    if data.shape != (sidecar["n"], sidecar["p"]):
        raise InvalidParameter(
            f"sample sidecar declares shape ({sidecar['n']}, {sidecar['p']}) but data is {data.shape}"
        )
    return SampleSet(data=data, seed=sidecar["seed"], meta=sidecar.get("meta", {}))
