"""Shared fixtures: small named graphs, a random-graph helper, and the
optional on-disk dataset registry (files are fetched manually, see
datasets/README.md; tests that need them skip when absent)."""
from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from motifemb import Graph

DATASET_DIR = Path(__file__).resolve().parent.parent / "datasets"
SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"

# name -> (num_nodes, num_edges, max_degree, avg_degree, density)
EXPECTED_DATASET_STATS = {
    "wiki": (889, 2914, 102, 6.5556, 0.007383),
    "routers": (2113, 6632, 109, 6.2773, 0.002972),
    "twitter": (761, 1029, 37, 2.7043, 0.003558),
    "facebook": (2888, 2981, 769, 2.0644, 0.000715),
    "hamsterster": (2426, 16630, 273, 13.7098, 0.005654),
    "openflights": (2939, 15677, 242, 10.6682, 0.003631),
}


def dataset_path(name: str) -> Path:
    return DATASET_DIR / f"{name}.edges"


def require_dataset(name: str) -> Path:
    path = dataset_path(name)
    if not path.exists():
        pytest.skip(
            f"dataset {name!r} not present; download it per datasets/README.md "
            f"into {path}"
        )
    return path


def available_datasets() -> list[str]:
    return [n for n in EXPECTED_DATASET_STATS if dataset_path(n).exists()]


@functools.cache
def load_script(name: str):
    """The module of scripts/<name>.py, imported once, for its parser."""
    spec = importlib.util.spec_from_file_location(name, SCRIPT_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def er_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); guaranteed at least one edge (adds (0, 1))."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
    if not edges:
        edges = [(0, 1)]
    return Graph.from_edges(n, edges)


@pytest.fixture
def step_log(monkeypatch) -> list:
    """(center_idx, ctx_idx) of every sgns_step call SGNS or LINE makes."""
    import motifemb.sgns

    log = []
    real_step = motifemb.sgns.sgns_step

    def recording_step(w_center, w_ctx, center_idx, ctx_idx, lr):
        log.append((center_idx.copy(), ctx_idx.copy()))
        real_step(w_center, w_ctx, center_idx, ctx_idx, lr)

    monkeypatch.setattr(motifemb.sgns, "sgns_step", recording_step)
    return log


@pytest.fixture
def trained_pairs(monkeypatch) -> list:
    """The (center, context) matrices of every train_pairs run train_sgns makes."""
    import motifemb.sgns

    log = []
    real_train = motifemb.sgns.train_pairs

    def recording_train(*args, **kwargs):
        log.append(real_train(*args, **kwargs))
        return log[-1]

    monkeypatch.setattr(motifemb.sgns, "train_pairs", recording_train)
    return log


@pytest.fixture
def k3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def k4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.fixture
def path3() -> Graph:
    """a - b - c with b in the middle."""
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def c4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def tri_pendant() -> Graph:
    """Triangle {0,1,2} plus pendant edge 2-3."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


@pytest.fixture
def two_k4() -> Graph:
    """Two disjoint 4-cliques: nodes 0-3 and 4-7."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
    return Graph.from_edges(8, edges)


@pytest.fixture
def two_triangles_bridged() -> Graph:
    """Triangles {0,1,2} and {3,4,5} joined by the bridge 2-3."""
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    )


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)
