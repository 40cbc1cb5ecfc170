"""Graph construction: hand-computed cases, the parent formulas and a brute-force
oracle, and the similarity range law. The other graph laws live in acceptance
criterion 3."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cogcn import (
    build_cosine_graph,
    build_temporal_graph,
    cosine_similarity_matrix,
    export_dot,
    export_graph_json,
    graph_to_json_dict,
    norm_coefficients,
)


def brute_force_cosine(x):
    """Unclamped pairwise cosines by Python loops, 0 for a zero row. Each row is
    first divided by its largest magnitude, which leaves its cosines as they
    are and keeps the loops' squares clear of underflow."""
    rows = [[v / max(map(abs, row)) for v in row] if any(row) else row for row in x.tolist()]
    norms = [math.sqrt(sum(v * v for v in row)) for row in rows]
    return np.array([[sum(a * b for a, b in zip(xi, xj)) / (ni * nj) if ni and nj else 0.0
                      for xj, nj in zip(rows, norms)] for xi, ni in zip(rows, norms)])


# Feature matrices of 1-12 frames and widths 1-6, values in [-1e3, 1e3] with subnormals.
small_matrices = st.tuples(st.integers(1, 12), st.integers(1, 6)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))


class TestCosineSimilarity:
    @settings(max_examples=200)
    @given(small_matrices)
    @example(np.array([[0.0, 0.0], [1.0, 2.0], [-2.0, -4.0]]))
    @example(np.array([[1e-109], [1e-109], [1.0]]))
    def test_matches_brute_force(self, x):
        expected = np.clip(brute_force_cosine(x), -1.0, 1.0)
        # Known and pinned: where |x_i|^2, |x_j|^2 or their product is below the
        # smallest normal float (norms below about 1e-77), graph.py's quotient
        # loses precision, down to 0 for a product that underflows, so there
        # only the range is checked. The diagonal is 1 where |x_i|^2 > 0, else 0.
        sq = np.einsum("ij,ij->i", x, x)
        tiny = np.finfo(np.float64).tiny
        known = (np.multiply.outer(sq, sq) < tiny) | (np.minimum.outer(sq, sq) < tiny)
        np.fill_diagonal(known, False)
        np.fill_diagonal(expected, sq > 0.0)
        sim = cosine_similarity_matrix(x)
        np.testing.assert_allclose(sim[~known], expected[~known], rtol=0.0, atol=1e-12)

    def test_orthogonal_rows(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim[0, 1] == 0.0

    def test_collinear_rows(self):
        sim = cosine_similarity_matrix(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert sim[0, 1] == 1.0

    def test_hand_computed_pair(self):
        # (1*2 + 2*1) / sqrt(5 * 5) = 4/5, exact in float64
        sim = cosine_similarity_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert sim[0, 1] == 0.8

    def test_zero_norm_row_gets_zero_similarity_everywhere(self):
        x = np.array([[0.0, 0.0], [1.0, 2.0]])
        sim = cosine_similarity_matrix(x)
        assert sim[0, 0] == 0.0 and sim[0, 1] == 0.0 and sim[1, 0] == 0.0
        assert sim[1, 1] == 1.0

    def test_unit_diagonal_for_nonzero_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        assert np.all(np.diag(cosine_similarity_matrix(x)) == 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity_matrix(np.array([[1.0, np.nan]]))


class TestCosineGraph:
    def test_threshold_half(self):
        # s(0,2) = s(1,2) = 1/sqrt(2) ~ 0.7071 >= 0.5; s(0,1) = 0 < 0.5
        g = build_cosine_graph(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 0.5)
        assert g.edges() == [(0, 2), (1, 2)]
        np.testing.assert_array_equal(g.degree_hat, [2.0, 2.0, 3.0])

    def test_threshold_point_eight(self):
        g = build_cosine_graph(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 0.8)
        assert g.edges() == []
        np.testing.assert_array_equal(g.degree_hat, [1.0, 1.0, 1.0])

    def test_single_node(self):
        g = build_cosine_graph(np.array([[3.0, 4.0]]), 0.5)
        assert g.edges() == [] and g.degree_hat.tolist() == [1.0]

    @pytest.mark.parametrize("gamma", [-1.0, -2.0, 1.5])
    def test_gamma_range_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            build_cosine_graph(np.eye(3), gamma)

    def test_gamma_one_allowed(self):
        g = build_cosine_graph(np.array([[1.0, 1.0], [2.0, 2.0]]), 1.0)
        assert g.edges() == [(0, 1)]


class TestTemporalGraph:
    def test_chain_of_four(self):
        g = build_temporal_graph(np.zeros((4, 2)))
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]
        np.testing.assert_array_equal(g.degree_hat, [2.0, 3.0, 3.0, 2.0])

    def test_single_node(self):
        g = build_temporal_graph(np.zeros((1, 2)))
        assert g.edges() == [] and g.degree_hat.tolist() == [1.0]

    def test_two_nodes(self):
        g = build_temporal_graph(np.zeros((2, 2)))
        assert g.edges() == [(0, 1)]
        np.testing.assert_array_equal(g.degree_hat, [2.0, 2.0])


class TestNormCoefficients:
    def test_single_node(self):
        g = build_cosine_graph(np.array([[1.0]]), 0.5)
        np.testing.assert_array_equal(norm_coefficients(g), [[1.0]])

    def test_two_connected_nodes(self):
        g = build_temporal_graph(np.zeros((2, 1)))
        np.testing.assert_allclose(norm_coefficients(g), np.full((2, 2), 0.5))

    def test_chain_middle_node(self):
        g = build_temporal_graph(np.zeros((3, 1)))
        coeffs = norm_coefficients(g)
        assert coeffs[1, 1] == pytest.approx(1.0 / 3.0)
        assert coeffs[1, 0] == pytest.approx(1.0 / math.sqrt(6.0))
        assert coeffs[0, 2] == 0.0

    def test_without_self(self):
        g = build_temporal_graph(np.zeros((3, 1)))
        coeffs = norm_coefficients(g, include_self=False)
        assert np.all(np.diag(coeffs) == 0.0)
        assert coeffs[1, 0] == pytest.approx(1.0 / math.sqrt(6.0))


def parent_similarity(x):
    """The similarity formula graph.py used before it thresholded the raw
    matrix: masked where-divide, float mirror of the upper triangle for every
    input, diagonal fill and clamp."""
    x = np.asarray(x, dtype=np.float64)
    norms_sq = np.einsum("ij,ij->i", x, x)
    denom = np.sqrt(np.outer(norms_sq, norms_sq))
    sim = np.where(denom > 0.0, (x @ x.T) / np.where(denom > 0.0, denom, 1.0), 0.0)
    sim = np.triu(sim) + np.triu(sim, 1).T
    np.fill_diagonal(sim, np.where(norms_sq > 0.0, 1.0, 0.0))
    np.clip(sim, -1.0, 1.0, out=sim)
    return sim


def parent_cosine_graph(x, gamma, include_self):
    """The old threshold and coefficients on ``parent_similarity``:
    where(adjacency, outer, 0) with the diagonal filled."""
    adjacency = parent_similarity(x) >= gamma
    np.fill_diagonal(adjacency, False)
    degree_hat = 1.0 + adjacency.sum(axis=1).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(degree_hat)
    coeffs = np.where(adjacency, np.outer(inv_sqrt, inv_sqrt), 0.0)
    if include_self:
        np.fill_diagonal(coeffs, inv_sqrt * inv_sqrt)
    return adjacency, degree_hat, coeffs


def oracle_inputs():
    """Zero-norm, collinear and duplicate rows and one-frame inputs, each in
    C order, Fortran order and as two kinds of column slice."""
    rng = np.random.default_rng(21)
    bases = [np.array([[3.0, -1.0]]), np.zeros((1, 3)), np.zeros((3, 2)),
             np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [-3.0, -3.0]])]
    for trial in range(40):
        n, d = int(rng.integers(2, 30)), int(rng.integers(1, 9))
        x = rng.standard_normal((n, d))
        if trial % 2:
            x = np.round(x * 2.0)  # integer rows: collinear pairs have cosine exactly +-1
        x[rng.integers(n)] = 0.0
        x[rng.integers(n)] = x[rng.integers(n)] * float(rng.integers(1, 4))
        bases.append(x)
    # sizes at which numpy's product of a strided matrix with itself is not
    # exactly symmetric, so that only the mirror in graph.py keeps it so
    bases += [rng.standard_normal((n, d)) for n, d in ((201, 80), (236, 13), (273, 52))]
    for x in bases:
        yield x
        yield np.asfortranarray(x)
        yield np.hstack([x, x + 1.0])[:, : x.shape[1]]  # unit stride, wider rows
        yield np.repeat(x, 2, axis=1)[:, ::2]  # strided columns


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 0.55, 0.6, 1.0])
def test_cosine_graph_matches_parent_formulas_bytewise(gamma):
    for x in oracle_inputs():
        g = build_cosine_graph(x, gamma)
        for include_self in (True, False):
            adjacency, degree_hat, coeffs = parent_cosine_graph(x, gamma, include_self)
            assert g.adjacency.tobytes() == adjacency.tobytes()
            assert g.degree_hat.tobytes() == degree_hat.tobytes()
            actual = norm_coefficients(g, include_self=include_self)
            assert actual.dtype == np.float64 and actual.tobytes() == coeffs.tobytes()
            assert actual.astype(np.float32).tobytes() == coeffs.astype(np.float32).tobytes()


def test_similarity_matches_parent_formula():
    # equal up to the sign of zero: the old float mirror turned -0.0 into +0.0
    for x in oracle_inputs():
        sim = cosine_similarity_matrix(x)
        assert np.array_equal(sim, parent_similarity(x)) and np.array_equal(sim, sim.T)


def test_temporal_graph_matches_parent_formulas_bytewise():
    for n in (1, 2, 3, 17):
        adjacency = np.zeros((n, n), dtype=bool)
        idx = np.arange(n - 1)
        adjacency[idx, idx + 1] = adjacency[idx + 1, idx] = True
        degree_hat = 1.0 + adjacency.sum(axis=1).astype(np.float64)
        inv_sqrt = 1.0 / np.sqrt(degree_hat)
        g = build_temporal_graph(np.ones((n, 2)))
        assert g.adjacency.tobytes() == adjacency.tobytes()
        assert g.degree_hat.tobytes() == degree_hat.tobytes()
        for include_self in (True, False):
            coeffs = np.where(adjacency, np.outer(inv_sqrt, inv_sqrt), 0.0)
            if include_self:
                np.fill_diagonal(coeffs, inv_sqrt * inv_sqrt)
            assert norm_coefficients(g, include_self).tobytes() == coeffs.tobytes()


class TestExports:
    def test_dot_chain(self, tmp_path):
        g = build_temporal_graph(np.zeros((3, 1)))
        path = tmp_path / "g.dot"
        export_dot(g, path)
        body = path.read_text()
        assert "0 -- 1;" in body and "1 -- 2;" in body
        assert body.count("--") == 2

    def test_dot_edgeless(self, tmp_path):
        g = build_cosine_graph(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.5)
        path = tmp_path / "g.dot"
        export_dot(g, path)
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.strip().endswith(";") and "--" not in l) == 2
        assert not any("--" in l for l in lines)

    def test_dot_deterministic(self, tmp_path):
        g = build_temporal_graph(np.arange(8.0).reshape(4, 2))
        export_dot(g, tmp_path / "a.dot")
        export_dot(g, tmp_path / "b.dot")
        assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()

    def test_json_schema(self, tmp_path):
        import json

        g = build_temporal_graph(np.zeros((3, 1)))
        path = tmp_path / "g.json"
        export_graph_json(g, path)
        obj = json.loads(path.read_text())
        assert obj == {"n": 3, "edges": [[0, 1], [1, 2]], "degree_hat": [2.0, 3.0, 2.0]}
        assert obj == graph_to_json_dict(g)


class TestGraphLaws:
    """The other graph laws live in acceptance criterion 3."""

    @settings(max_examples=200)
    @given(small_matrices)
    @example(np.array([[1e-109], [1e-109], [1.0]]))
    def test_similarity_range_and_clamp(self, x):
        sim = cosine_similarity_matrix(x)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)
        # so clamping moves a raw value by 1e-12 at most
        assert np.all(np.abs(brute_force_cosine(x)) <= 1.0 + 1e-12)
