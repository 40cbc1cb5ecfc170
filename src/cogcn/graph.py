"""Cosine-similarity and temporal graphs over frame features.

Two frames are connected when their feature vectors point in a similar
direction: s[i, j] = <x_i, x_j> / (|x_i| |x_j|), with an edge wherever the
similarity clears a threshold. The temporal variant instead chains
consecutive frames. Self-loops are never stored; they enter through the
degree term degree_hat[i] = 1 + (number of neighbours), and aggregation
weights are the symmetric normalization 1 / sqrt(degree_hat[i] * degree_hat[j])
over each node's neighbourhood plus itself, built directly in the model's
dtype as one rounding of the float64 products.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import write_text_atomic

GRAPH_KINDS = ("cosine", "temporal")


@dataclass(frozen=True)
class Graph:
    """A symmetric, self-loop-free boolean adjacency and its degree terms."""

    adjacency: np.ndarray  # (n, n) bool, zero diagonal
    degree_hat: np.ndarray  # (n,) float64, 1 + neighbour count

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, ascending (i, j) with i < j."""
        ii, jj = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(ii.tolist(), jj.tolist()))


def _as_feature_matrix(x) -> np.ndarray:
    """``x`` as a C-contiguous float64 matrix, copied only if it is not one already."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-d, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("feature matrix needs at least one row")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature value")
    return x


# Squared norms in [2**-511, 2**511] keep every product |x_i|^2 |x_j|^2 a
# normal float and every dot product finite.
_SQ_LOW, _SQ_HIGH = 2.0**-511, 2.0**511


def _raw_cosine(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms and unclamped similarities, 0 wherever a norm is 0.

    A nonzero row whose squared norm is outside [2**-511, 2**511] is first
    scaled, exactly, by the power of two that brings its largest magnitude
    into [0.5, 1); the other rows keep their bits.
    """
    sq = np.einsum("ij,ij->i", x, x)
    low = sq.min()
    if not (low >= _SQ_LOW and sq.max() <= _SQ_HIGH):  # O(n); an underflow gives 0, an overflow inf
        out = (sq < _SQ_LOW) | (sq > _SQ_HIGH)
        peak = np.abs(x[out]).max(axis=1)  # 0 for a zero row, which stays as it is
        if peak.any():
            shift = np.zeros((len(x), 1), dtype=np.int32)
            shift[out, 0] = -np.frexp(peak)[1]
            x = np.ldexp(x, shift)  # a new array: the caller's rows are untouched
            sq = np.einsum("ij,ij->i", x, x)
            low = sq.min()
    # sqrt of the product (not product of sqrts): one rounding step, so
    # integer-valued collinear pairs come out exactly 1
    denom = np.multiply.outer(sq, sq)
    np.sqrt(denom, out=denom)
    sim = x @ x.T
    if low > 0.0:  # then every entry of denom is at least 2**-511
        return sq, np.divide(sim, denom, out=sim)
    return sq, np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0.0)


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarities, exactly symmetric and clamped to [-1, 1].

    Rows with zero norm get similarity 0 everywhere, including the diagonal:
    an all-zero frame carries no directional information. The diagonal of
    every other row is exactly 1. Symmetry is exact: ``x`` is taken in C
    order, for which numpy computes ``x @ x.T`` as a symmetric rank-k update
    and mirrors its triangle. So the result depends only on the values of
    ``x``, not on its memory layout.
    """
    sq, sim = _raw_cosine(_as_feature_matrix(x))
    np.fill_diagonal(sim, np.where(sq > 0.0, 1.0, 0.0))
    return np.clip(sim, -1.0, 1.0, out=sim)


def build_cosine_graph(x, gamma: float) -> Graph:
    """Threshold the similarity matrix at ``gamma``.

    ``gamma`` must lie in (-1, 1]; anything <= -1 would yield a complete
    graph and is rejected as a misconfiguration. For such a gamma neither
    the clamp nor the diagonal can change an edge, so neither is applied.
    """
    if not -1.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (-1, 1], got {gamma}")
    x = _as_feature_matrix(x)
    adjacency = _raw_cosine(x)[1] >= gamma
    adjacency.reshape(-1)[:: len(x) + 1] = False  # the diagonal, as a strided view
    return Graph(adjacency, 1.0 + adjacency.sum(axis=1, dtype=np.float64))


def build_temporal_graph(x) -> Graph:
    """Chain graph: frame i is connected to frames i-1 and i+1."""
    x = _as_feature_matrix(x)
    adjacency = np.eye(len(x), k=1, dtype=bool) | np.eye(len(x), k=-1, dtype=bool)
    return Graph(adjacency, 1.0 + adjacency.sum(axis=1, dtype=np.float64))


def norm_coefficients(g: Graph, dtype=np.float64) -> np.ndarray:
    """Aggregation coefficients c[i, j] = 1 / sqrt(degree_hat[i] * degree_hat[j]).

    Nonzero on the adjacency support and on the diagonal, so that
    aggregation runs over each node's neighbourhood plus the node itself.
    Returned dense in ``dtype``; each entry is the float64 product rounded
    once, so a float32 result has the bits of the float64 one cast.
    Off-support entries are exactly zero.
    """
    inv_sqrt = 1.0 / np.sqrt(g.degree_hat)
    n = len(inv_sqrt)
    coeffs = np.multiply.outer(inv_sqrt, inv_sqrt, out=np.empty((n, n), dtype=dtype))
    coeffs *= g.adjacency
    coeffs.reshape(-1)[:: n + 1] = inv_sqrt * inv_sqrt
    return coeffs


def export_dot(g: Graph, path: str | Path) -> None:
    """Write the graph as Graphviz DOT, nodes then edges in ascending order."""
    lines = ["graph g {"]
    lines += [f"  {i};" for i in range(g.n_nodes)]
    lines += [f"  {i} -- {j};" for i, j in g.edges()]
    lines.append("}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def export_graph_json(g: Graph, path: str | Path) -> None:
    """Write the graph as JSON: node count ``n``, ``edges`` as in ``edges()``, ``degree_hat``."""
    obj = {"n": g.n_nodes, "edges": [[i, j] for i, j in g.edges()],
           "degree_hat": g.degree_hat.tolist()}
    write_text_atomic(path, json.dumps(obj) + "\n")
