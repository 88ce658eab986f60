"""Dataset serialization and deterministic splitting.

The canonical on-disk form is a single UTF-8 JSON object with arrays in
node-index order:

``{"name", "num_nodes", "node_features", "edges", "hyperedges",
"hyperedge_weights"?, "hyperedge_features"?, "parent"?, "labels", "task",
"num_classes"?, "positions"?, "embeddings"?}``

Missing optional fields take documented defaults: weights -> all 1.0,
parent -> identity.  ``hyperedges`` load straight into the flat
``graph.Hyperedges`` view, with no tuple per hyperedge; ``save`` writes
each hyperedge's members ascending, as the view stores them.  ``positions``
(per-node ``[chromosome, offset]``) and ``embeddings`` are carried for the
hyperedge-construction pipelines and are not part of the in-memory graph.

Index fields (``edges``, ``hyperedges``, ``parent``, class ``labels``) must
hold integers: ``1.0`` reads as 1, while ``1.5`` is refused rather than
truncated.  Every number must be finite: JSON ``NaN`` and ``Infinity`` are
refused in every numeric field (``node_features``, ``hyperedge_weights``,
``hyperedge_features``, ``embeddings``, regression ``labels``, ...).  Every
malformed field raises a ``SchemaError`` that names it.
"""

import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .graph import HybridGraph, Hyperedges, InvalidGraphError, Task

__all__ = [
    "DatasetFile",
    "ParseError",
    "SchemaError",
    "SplitMasks",
    "load",
    "load_file",
    "read_json_object",
    "resolve_dataset",
    "save",
    "split",
]

DATA_DIR_ENV = "HYGRAPH_DATA"
_ROWS = 1000  # list items per json.dumps call in save_file


class ParseError(ValueError):
    """File is not well-formed JSON."""


class SchemaError(ValueError):
    """JSON is well-formed but does not match the dataset schema."""


@dataclass
class DatasetFile:
    """Everything a canonical dataset file can carry.

    ``positions`` entries are ``(chromosome, base-pair offset)`` pairs;
    chromosome ids may be strings or ints and are compared by equality only.
    """

    name: str
    num_nodes: int
    node_features: np.ndarray
    edges: np.ndarray
    hyperedges: Hyperedges | tuple = ()  # a flat view when loaded
    hyperedge_weights: np.ndarray | None = None
    hyperedge_features: np.ndarray | None = None
    parent: np.ndarray | None = None
    labels: np.ndarray | None = None
    task: Task = field(default_factory=lambda: Task("regression"))
    positions: list[tuple[object, int]] | None = None
    embeddings: np.ndarray | None = None

    def to_graph(self, path: str) -> HybridGraph:
        """The graph of the file at ``path``, checked: a breach is a
        ``SchemaError`` that names the file."""
        g = HybridGraph(
            node_features=self.node_features,
            simple_edges=self.edges,
            hyperedges=self.hyperedges,
            hyperedge_weights=self.hyperedge_weights,
            hyperedge_features=self.hyperedge_features,
            parent=self.parent,
            labels=self.labels,
            task=self.task,
        )
        try:
            return g.require_valid()
        except InvalidGraphError as e:
            raise SchemaError(f"{path}: graph fails validation: {e}") from e


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing required field '{key}'")
    return obj[key]


def _numbers(value, path: str, key: str) -> np.ndarray:
    """A JSON (nested) list of numbers as an int or float array."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise SchemaError(f"{path}: field '{key}' must hold numbers only")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise SchemaError(f"{path}: field '{key}': non-finite number")
    return arr


def _floats(value, path: str, key: str) -> np.ndarray:
    return _numbers(value, path, key).astype(np.float64, copy=False)


def _matrix(value, path: str, key: str, rows: int) -> np.ndarray:
    """A JSON list of ``rows`` rows as a 2-D float array; ``[]`` has no rows."""
    arr = _floats(value, path, key)
    arr = np.atleast_2d(arr) if arr.ndim > 1 or arr.size else arr.reshape(0, 0)
    if arr.shape[0] != rows:
        raise SchemaError(f"{path}: field '{key}' has {arr.shape[0]} rows, expected {rows}")
    return arr


def _integers(value, path: str, key: str, what: str = "index") -> np.ndarray:
    """Numbers that must be integral: ``1.0`` is read as 1, ``1.5`` is refused."""
    arr = _numbers(value, path, key)
    if arr.dtype.kind == "f" and not (arr == np.round(arr)).all():
        raise SchemaError(f"{path}: field '{key}': non-integer {what}")
    if arr.dtype.kind != "i" and arr.size and (arr.max() >= 2**63 or arr.min() < -2**63):
        raise SchemaError(f"{path}: field '{key}': {what} outside int64")  # the cast would wrap
    return arr.astype(np.int64)


def _of_length(arr: np.ndarray, n: int, path: str, key: str) -> np.ndarray:
    """Check that ``arr`` is a flat list of length ``n``."""
    if arr.ndim != 1:
        raise SchemaError(f"{path}: field '{key}' must be a flat list")
    if arr.shape[0] != n:
        raise SchemaError(f"{path}: field '{key}' length {arr.shape[0]}, expected {n}")
    return arr


def _hyperedges(value, n: int, path: str) -> Hyperedges:
    if not isinstance(value, list) or not all(isinstance(e, list) for e in value):
        raise SchemaError(f"{path}: field 'hyperedges' must be a list of lists")
    flat = _integers(list(chain.from_iterable(value)), path, "hyperedges")
    if flat.ndim != 1:
        raise SchemaError(f"{path}: field 'hyperedges' members must be node indices")
    offsets = np.cumsum([0, *map(len, value)], dtype=np.int64)
    bad = np.flatnonzero((flat < 0) | (flat >= n))
    if bad.size:
        k = int(np.searchsorted(offsets[1:], bad[0], side="right"))
        raise SchemaError(f"{path}: field 'hyperedges'[{k}]: index out of range")
    return Hyperedges(flat, offsets)


def _positions(value, n: int, path: str) -> list[tuple[object, int]]:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: field 'positions' must be a list")
    if len(value) != n:
        raise SchemaError(f"{path}: field 'positions' length {len(value)}, expected {n}")
    if not all(isinstance(p, list) and len(p) == 2 and isinstance(p[0], (str, int))
               for p in value):
        raise SchemaError(f"{path}: field 'positions' entries must be [chromosome, offset]")
    offsets = _integers([p[1] for p in value], path, "positions", what="offset")
    return [(p[0], o) for p, o in zip(value, offsets.tolist())]


def read_json_object(path: str) -> dict:
    """Parse ``path`` as one JSON object; errors name the file (and the line)."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: line {e.lineno}: {e.msg}") from e
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return obj


def load_file(path: str) -> DatasetFile:
    """Parse a canonical JSON dataset, checking the schema field by field."""
    obj = read_json_object(path)

    n = _need(obj, "num_nodes", path)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise SchemaError(f"{path}: field 'num_nodes' must be a non-negative integer")

    features = _matrix(_need(obj, "node_features", path), path, "node_features", n)

    edges = _integers(_need(obj, "edges", path), path, "edges")
    if edges.size == 0:
        edges = np.zeros((0, 2), np.int64)
    elif edges.ndim != 2 or edges.shape[1] != 2:
        raise SchemaError(f"{path}: field 'edges' must be a list of node pairs")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise SchemaError(f"{path}: field 'edges': index out of range")

    hyperedges = _hyperedges(obj.get("hyperedges", []), n, path)

    weights = obj.get("hyperedge_weights")
    if weights is not None:
        weights = _of_length(_floats(weights, path, "hyperedge_weights"),
                            len(hyperedges), path, "hyperedge_weights")

    he_features = obj.get("hyperedge_features")
    if he_features is not None:
        he_features = _matrix(he_features, path, "hyperedge_features", len(hyperedges))

    parent = obj.get("parent")
    if parent is not None:
        parent = _of_length(_integers(parent, path, "parent"), n, path, "parent")
        if parent.size and (parent.min() < 0 or parent.max() >= n):
            raise SchemaError(f"{path}: field 'parent': index out of range")

    task_kind = _need(obj, "task", path)
    if task_kind == "classification":
        k = _need(obj, "num_classes", path)
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise SchemaError(f"{path}: field 'num_classes' must be an integer >= 2")
        task = Task("classification", num_classes=k)
    elif task_kind == "regression":
        task = Task("regression")
    else:
        raise SchemaError(f"{path}: field 'task' must be 'classification' or 'regression'")

    labels = _need(obj, "labels", path)
    if task.is_classification:
        labels = _integers(labels, path, "labels", what="class label")
    else:
        labels = _numbers(labels, path, "labels")
    _of_length(labels, n, path, "labels")
    if task.is_classification and labels.size and (
        labels.min() < 0 or labels.max() >= task.num_classes
    ):
        raise SchemaError(f"{path}: field 'labels': class out of range")

    positions = obj.get("positions")
    if positions is not None:
        positions = _positions(positions, n, path)

    embeddings = obj.get("embeddings")
    if embeddings is not None:
        embeddings = _matrix(embeddings, path, "embeddings", n)

    return DatasetFile(
        name=obj.get("name", ""),
        num_nodes=n,
        node_features=features,
        edges=edges,
        hyperedges=hyperedges,
        hyperedge_weights=weights,
        hyperedge_features=he_features,
        parent=parent,
        labels=labels,
        task=task,
        positions=positions,
        embeddings=embeddings,
    )


def load(path: str) -> HybridGraph:
    """Load a canonical dataset file as a validated graph."""
    return load_file(path).to_graph(path)


def _dataset_dict(ds: DatasetFile) -> dict:
    """The file's fields: JSON scalars, or arrays and iterables of list items."""
    out: dict = {
        "name": ds.name,
        "num_nodes": ds.num_nodes,
        "node_features": ds.node_features,
        "edges": ds.edges,
        "hyperedges": ds.hyperedges,  # tuples encode as JSON arrays
        "labels": ds.labels if ds.labels is not None else (),
        "task": ds.task.kind,
    }
    if ds.task.is_classification:
        out["num_classes"] = ds.task.num_classes
    if ds.hyperedge_weights is not None and not np.all(ds.hyperedge_weights == 1.0):
        out["hyperedge_weights"] = ds.hyperedge_weights
    if ds.hyperedge_features is not None:
        out["hyperedge_features"] = ds.hyperedge_features
    if ds.parent is not None and not np.array_equal(
        ds.parent, np.arange(ds.num_nodes)
    ):
        out["parent"] = ds.parent
    if ds.positions is not None:
        out["positions"] = ([c, int(o)] for c, o in ds.positions)
    if ds.embeddings is not None:
        out["embeddings"] = ds.embeddings
    return out


def _chunks(items):
    """``items`` in lists of at most ``_ROWS``; an array is converted slice by slice."""
    if isinstance(items, np.ndarray):
        return (items[at:at + _ROWS].tolist() for at in range(0, len(items), _ROWS))
    items = iter(items)
    return iter(lambda: list(islice(items, _ROWS)), [])


def save_file(ds: DatasetFile, path: str) -> None:
    """Write ``json.dump``'s bytes (sorted keys, no spaces) and a newline.

    Through ``json.dumps``, which runs the C encoder; it holds all its text
    until it returns, so each call encodes at most ``_ROWS`` list items,
    turned into Python objects only as they are written.
    """
    obj = _dataset_dict(ds)
    with open(path, "w", encoding="utf-8") as fh:
        for i, key in enumerate(sorted(obj)):
            value = obj[key]
            fh.write(("," if i else "{") + json.dumps(key) + ":")
            if isinstance(value, (str, int)):
                fh.write(json.dumps(value))
                continue
            fh.write("[")
            for at, chunk in enumerate(_chunks(value)):
                rows = json.dumps(chunk, sort_keys=True, separators=(",", ":"))
                fh.write(("," if at else "") + rows[1:-1])
            fh.write("]")
        fh.write("}\n")


def save(g: HybridGraph, path: str, name: str = "") -> None:
    """Write a validated graph in canonical form; round-trips exactly, except
    that a matrix with no rows loads with shape (0, 0)."""
    g.require_valid()
    ds = DatasetFile(
        name=name,
        num_nodes=g.num_nodes,
        node_features=g.node_features,
        edges=g.simple_edges,
        hyperedges=g.hyperedges,
        hyperedge_weights=g.hyperedge_weights,
        hyperedge_features=g.hyperedge_features,
        parent=g.parent,
        labels=g.labels,
        task=g.task,
    )
    save_file(ds, path)


def resolve_dataset(path: str) -> str:
    """Resolve a dataset reference against the cwd, then $HYGRAPH_DATA."""
    if os.path.exists(path):
        return path
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = os.path.join(data_dir, path)
        if os.path.exists(candidate):
            return candidate
    raise FileNotFoundError(f"dataset not found: {path}")


@dataclass(frozen=True)
class SplitMasks:
    """Disjoint, exhaustive train/val/test node-index sets."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def as_dict(self) -> dict:
        return {
            "train": self.train.tolist(),
            "val": self.val.tolist(),
            "test": self.test.tolist(),
        }


def split(g: HybridGraph, seed: int) -> SplitMasks:
    """Uniform 6:2:2 node split: floor for train and val, remainder test."""
    n = g.num_nodes
    if n < 5:
        raise ValueError(f"need at least 5 nodes to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = 6 * n // 10
    n_val = 2 * n // 10
    return SplitMasks(
        train=np.sort(perm[:n_train]),
        val=np.sort(perm[n_train : n_train + n_val]),
        test=np.sort(perm[n_train + n_val :]),
    )
