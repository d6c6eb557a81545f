"""File formats shared by the CLI and the library: edge lists, model
directories, sample matrices, result directories, JSON helpers.

Edge list: first line ``<p> <edge-count>``, then one ``u v`` line per edge
with u < v, lines sorted.  Model directory: ``graph.edges``,
``model.json`` and ``precision.npz``, which holds J on its support, the
only entries a model's precision matrix may have nonzero: ``diagonal``
(float64, p values) and ``edge_values`` (float64, ``J[u, v]`` for each
edge in ``graph.edges`` order).  The loader scatters them into a zero
matrix, so J comes back bit for bit (a ``-0.0`` off the support loads as
``0.0``).  Sample matrix: ``samples.npy``, the n x p float64 array in
numpy's npy format, written by ``np.save`` and read by ``np.load`` without
pickles, so values round-trip bit for bit and loading costs no decimal
parsing.  Result directory: ``pairs.npz``, written by ``np.savez``, holds
the pair arrays of an ``EstimationResult`` (``values`` float64,
``set_index`` int64, ``status`` int8, and ``sets`` int64, one set per row
padded with -1), and ``result.json`` its ``summary()``: the header, the
edges' records and the status counts, without the p(p-1)/2 pair records
that made formatting floats the largest cost of ``learn``.

The readers raise InvalidParameter naming the path when a file cannot be
read or, for JSON, npy and npz, parsed; the model and sample loaders also
when a JSON sidecar is not an object or lacks a key or holds one of the
wrong type.  An npz reader also names an archive that lacks a member or
holds one of the wrong dtype or number of dimensions, and checks lengths:
``precision.npz`` against the edge list, ``pairs.npz`` against the pair
count of ``result.json``'s p, with set indices and statuses in range.  The
sample loader rejects a ``samples.npy`` that is not a 2-D float64 array of
the sidecar's shape.  A directory that holds the ``precision.csv`` or
``samples.csv`` text matrix of earlier versions instead is named with a
one-line conversion command.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, check_type
from .graph import Graph


def _cannot_read(path, exc: Exception) -> InvalidParameter:
    return InvalidParameter(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")


# the first bytes of an npy file and of a zip archive, such as an npz file;
# np.load tries to unpickle a file that starts with neither
_NPY_MAGIC, _ZIP_MAGIC = b"\x93NUMPY", b"PK"


def _load_numpy(path, expected: bytes, what: str, read):
    """``read`` of what ``np.load`` finds in the file at ``path``, opened
    once and closed on every outcome.  Raises InvalidParameter naming
    ``what`` unless the file starts with the npy magic string or the zip
    signature and ``np.load`` parses it; ``read`` runs while the file is
    open, so an npz archive's members can be read."""
    from zipfile import BadZipFile  # loaded with numpy

    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_NPY_MAGIC))
            if not head.startswith((_NPY_MAGIC, _ZIP_MAGIC)):
                raise InvalidParameter(f"{path} is not a valid {what}: it starts with {head!r}, not {expected!r}")
            fh.seek(0)
            try:
                loaded = np.load(fh, allow_pickle=False)
            except (ValueError, EOFError, BadZipFile) as exc:  # truncated or object data
                raise InvalidParameter(f"{path} is not a valid {what}: {exc}") from exc
            return read(loaded)
    except OSError as exc:
        raise _cannot_read(path, exc) from exc


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(path, exc) from exc


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
    try:  # a wrong field count fails the unpacking, a non-integer field int()
        p, count = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise InvalidParameter(f"bad edge list header {lines[0]!r}; expected '<p> <count>'") from exc
    if count != len(lines) - 1:
        raise InvalidParameter(f"edge list declares {count} edges but has {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = (int(x) for x in ln.split())
        except ValueError as exc:
            raise InvalidParameter(f"bad edge line {ln!r}; expected 'u v'") from exc
        if u >= v:
            raise InvalidParameter(f"edge line {ln!r} must satisfy u < v")
        edges.append((u, v))
    if edges != sorted(edges):
        raise InvalidParameter("edge lines must be sorted")
    return Graph(p, edges)


def read_edge_list(path) -> Graph:
    return parse_edge_list(_read_text(path))


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameter(f"{path} is not valid JSON: {exc}") from exc


def _read_sidecar(path, required: dict) -> dict:
    """The JSON object in ``path``, holding every key of ``required`` with
    a value of the type it maps to, and an optional ``meta`` object;
    anything else raises InvalidParameter naming the path."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise InvalidParameter(f"{path} must hold a JSON object, got {type(data).__name__}")
    for key, hint in {**required, "meta": dict}.items():
        if key in data:
            check_type(f"{path} key {key!r}", data[key], hint)
        elif key in required:
            raise InvalidParameter(f"{path} is missing the required key {key!r}")
    return data


def config_hash(obj) -> str:
    """Stable SHA-256 over the canonical JSON form of a configuration."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def save_model(model, directory) -> None:
    """Write a model directory: graph.edges, precision.npz, model.json."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_edge_list(model.graph, d / "graph.edges")
    u, v = np.asarray(model.graph.edges, dtype=np.intp).reshape(-1, 2).T
    np.savez(d / "precision.npz", diagonal=np.diag(model.precision), edge_values=model.precision[u, v])
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


def _check_not_legacy(path: Path, legacy: Path, code: str) -> None:
    """Raise InvalidParameter with the conversion ``code`` when ``path`` is
    missing and ``legacy``, the text matrix it replaced, is there."""
    if not path.exists() and legacy.exists():
        raise InvalidParameter(f"{path} is missing; {legacy.name} is no longer read; convert with python -c \"{code}\"")


# precision.npz: each array's dtype and number of dimensions
_PRECISION_ARRAYS = {"diagonal": (np.float64, 1), "edge_values": (np.float64, 1)}


def load_model(directory):
    from .model import GaussianModel

    d = Path(directory)
    graph = read_edge_list(d / "graph.edges")
    path, legacy = d / "precision.npz", d / "precision.csv"
    _check_not_legacy(path, legacy, (
        f"import numpy as np; from ggmlearn.io import read_edge_list; "
        f"j = np.loadtxt('{legacy}', delimiter=',', skiprows=1, ndmin=2); j = (j + j.T) / 2; "
        f"u, v = np.array(read_edge_list('{d / 'graph.edges'}').edges, dtype=int).reshape(-1, 2).T; "
        f"np.savez('{path}', diagonal=np.diag(j), edge_values=j[u, v])"))
    arrays = _read_npz(path, _PRECISION_ARRAYS)
    for key, size in (("diagonal", graph.p), ("edge_values", graph.n_edges)):
        if len(arrays[key]) != size:
            raise InvalidParameter(f"{path} array {key!r} has {len(arrays[key])} entries, "
                                   f"but {d / 'graph.edges'} needs {size}")
    precision = np.diag(arrays["diagonal"])
    u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
    precision[u, v] = precision[v, u] = arrays["edge_values"]
    sidecar = _read_sidecar(d / "model.json", {})
    return GaussianModel(graph, precision, meta=sidecar.get("meta", {}))


def save_samples(samples, directory) -> None:
    """Write a sample directory: samples.npy plus a provenance sidecar."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    data = np.ascontiguousarray(samples.data, dtype=np.float64)
    if data.ndim != 2:
        raise InvalidParameter("sample matrix must be 2-dimensional")
    np.save(d / "samples.npy", data, allow_pickle=False)
    write_json(
        {"n": samples.n, "p": samples.p, "seed": samples.seed, "meta": samples.meta},
        d / "samples.json",
    )


def _read_sample_matrix(path: Path) -> np.ndarray:
    """The 2-D float64 array in the npy file ``path``, C-ordered in native
    byte order."""
    legacy = path.with_suffix(".csv")
    _check_not_legacy(path, legacy, (
        f"import numpy as np; np.save('{path}', np.loadtxt('{legacy}', delimiter=',', skiprows=1, ndmin=2))"))

    def array(data) -> np.ndarray:
        if not isinstance(data, np.ndarray):  # a zip archive loads as an NpzFile
            raise InvalidParameter(f"{path} is a {type(data).__name__} archive, not a .npy array")
        if data.ndim != 2 or data.dtype.kind != "f" or data.dtype.itemsize != 8:
            raise InvalidParameter(f"{path} must hold a 2-D float64 array, got a {data.ndim}-D {data.dtype} array")
        return np.ascontiguousarray(data, dtype=np.float64)

    return _load_numpy(path, _NPY_MAGIC, ".npy array", array)


def load_samples(directory):
    from .sampler import SampleSet

    d = Path(directory)
    data = _read_sample_matrix(d / "samples.npy")
    sidecar = _read_sidecar(d / "samples.json", {"n": int, "p": int, "seed": int})
    if data.shape != (sidecar["n"], sidecar["p"]):
        raise InvalidParameter(
            f"sample sidecar declares shape ({sidecar['n']}, {sidecar['p']}) but data is {data.shape}"
        )
    return SampleSet(data=data, seed=sidecar["seed"], meta=sidecar.get("meta", {}))


# pairs.npz: each array's dtype and number of dimensions
_PAIR_ARRAYS = {"values": (np.float64, 1), "set_index": (np.int64, 1), "status": (np.int8, 1), "sets": (np.int64, 2)}


def save_result(result, directory) -> dict:
    """Write a result directory: the pair arrays in ``pairs.npz`` and
    ``result.summary()`` in ``result.json``, which is returned."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    width = max(map(len, result.sets), default=0)
    sets = np.array([(*s, *(-1,) * (width - len(s))) for s in result.sets], dtype=np.int64)
    np.savez(d / "pairs.npz", values=result.values, set_index=result.set_index.astype(np.int64),
             status=result.status.astype(np.int8), sets=sets.reshape(len(result.sets), width))
    summary = result.summary()
    # no indent: that selects json's pure-Python encoder, several times slower
    (d / "result.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    return summary


def _read_npz(path: Path, spec: dict) -> dict:
    """The arrays of the npz archive ``path`` that ``spec`` names, each of
    the dtype and number of dimensions it maps to."""
    from zipfile import BadZipFile  # loaded with numpy

    def members(archive) -> dict:
        if isinstance(archive, np.ndarray):
            raise InvalidParameter(f"{path} is a .npy array, not an npz archive")
        arrays = {}
        with archive:
            for key, (dtype, ndim) in spec.items():
                if key not in archive:
                    raise InvalidParameter(f"{path} is missing the array {key!r}")
                try:
                    a = archive[key]
                except (ValueError, EOFError, BadZipFile) as exc:  # object arrays, a damaged member
                    raise InvalidParameter(f"{path} array {key!r} is not valid: {exc}") from exc
                if a.dtype != dtype or a.ndim != ndim:
                    raise InvalidParameter(f"{path} array {key!r} must be a {ndim}-D {np.dtype(dtype)} array, "
                                           f"got a {a.ndim}-D {a.dtype} array")
                arrays[key] = a
        return arrays

    return _load_numpy(path, _ZIP_MAGIC, "npz archive", members)


def _read_pairs(path: Path, p: int) -> dict:
    """The arrays of ``pairs.npz`` for p vertices, checked against
    ``_PAIR_ARRAYS``, the pair count and the ranges of the indices."""
    from .estimator import STATUSES

    arrays = _read_npz(path, _PAIR_ARRAYS)
    size = p * (p - 1) // 2
    for key in ("values", "set_index", "status"):
        if len(arrays[key]) != size:
            raise InvalidParameter(f"{path} array {key!r} has {len(arrays[key])} entries, but p={p} has {size} pairs")
    for key, lo, hi in (("set_index", -1, len(arrays["sets"])), ("status", 0, len(STATUSES))):
        if np.any((arrays[key] < lo) | (arrays[key] >= hi)):
            raise InvalidParameter(f"{path} array {key!r} has an entry outside [{lo}, {hi})")
    return arrays


def load_result(directory):
    """Read a result directory written by ``save_result``."""
    from .estimator import EstimationResult

    d = Path(directory)
    data = _read_sidecar(d / "result.json", {
        "p": int, "edges": list, "threshold": float, "statistic": str, "eta": int, "n": int | None,
        "elapsed_s": float, "config": dict,
    })
    path = d / "pairs.npz"
    if not path.exists():
        raise InvalidParameter(f"{path} is missing")
    arrays = _read_pairs(path, data["p"])
    sets = [tuple(k for k in row if k >= 0) for row in arrays["sets"].tolist()]
    return EstimationResult.from_header(data, arrays["values"], arrays["set_index"].astype(np.intp),
                                        arrays["status"], sets)
