"""Cosine-similarity and temporal graphs over frame features.

Two frames are connected when their feature vectors point in a similar
direction: s[i, j] = <x_i, x_j> / (|x_i| |x_j|), with an edge wherever the
similarity clears a threshold. The temporal variant instead chains
consecutive frames. Self-loops are never stored; they enter through the
degree term degree_hat[i] = 1 + (number of neighbours), and aggregation
weights are the symmetric normalization 1 / sqrt(degree_hat[i] * degree_hat[j])
over each node's neighbourhood plus itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import write_text_atomic

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
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-d, got shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("feature matrix needs at least one row")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite feature value")
    return x


def _raw_cosine(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms and unclamped similarities, 0 wherever a norm is 0."""
    sq = np.einsum("ij,ij->i", x, x)
    # sqrt of the product (not product of sqrts): one rounding step, so
    # integer-valued collinear pairs come out exactly 1
    denom = np.multiply.outer(sq, sq)
    np.sqrt(denom, out=denom)
    sim = x @ x.T
    if not (x.flags.c_contiguous or x.flags.f_contiguous):  # see cosine_similarity_matrix
        sim = np.triu(sim) + np.triu(sim, 1).T
    low = sq.min()
    if low * low > 0.0:  # the smallest entry of denom is sqrt(low * low)
        return sq, np.divide(sim, denom, out=sim)
    return sq, np.divide(sim, denom, out=np.zeros_like(sim), where=denom > 0.0)


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarities, exactly symmetric and clamped to [-1, 1].

    Rows with zero norm get similarity 0 everywhere, including the diagonal:
    an all-zero frame carries no directional information. The diagonal of
    every other row is exactly 1. Symmetry is exact: numpy mirrors the
    triangle of ``x @ x.T`` (a symmetric rank-k update) for a contiguous
    ``x``, and ``_raw_cosine`` mirrors it for a strided one.
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
    np.fill_diagonal(adjacency, False)
    return Graph(adjacency, 1.0 + np.count_nonzero(adjacency, axis=1))


def build_temporal_graph(x) -> Graph:
    """Chain graph: frame i is connected to frames i-1 and i+1."""
    x = _as_feature_matrix(x)
    adjacency = np.eye(len(x), k=1, dtype=bool) | np.eye(len(x), k=-1, dtype=bool)
    return Graph(adjacency, 1.0 + np.count_nonzero(adjacency, axis=1))


def norm_coefficients(g: Graph, include_self: bool = True) -> np.ndarray:
    """Aggregation coefficients c[i, j] = 1 / sqrt(degree_hat[i] * degree_hat[j]).

    Nonzero on the adjacency support and, when ``include_self`` (the
    default), on the diagonal, so that aggregation runs over each node's
    neighbourhood plus the node itself. Returned dense; off-support entries
    are exactly zero.
    """
    inv_sqrt = 1.0 / np.sqrt(g.degree_hat)
    coeffs = np.multiply.outer(inv_sqrt, inv_sqrt) * g.adjacency
    if include_self:
        np.fill_diagonal(coeffs, inv_sqrt * inv_sqrt)
    return coeffs


def export_dot(g: Graph, path: str | Path) -> None:
    """Write the graph as Graphviz DOT, nodes then edges in ascending order."""
    lines = ["graph g {"]
    lines += [f"  {i};" for i in range(g.n_nodes)]
    lines += [f"  {i} -- {j};" for i, j in g.edges()]
    lines.append("}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def graph_to_json_dict(g: Graph) -> dict:
    return {
        "n": g.n_nodes,
        "edges": [[i, j] for i, j in g.edges()],
        "degree_hat": g.degree_hat.tolist(),
    }


def export_graph_json(g: Graph, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(graph_to_json_dict(g)) + "\n")
