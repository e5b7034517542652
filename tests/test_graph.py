import csv

import numpy as np
import pytest

from mswavenet import autodiff as ad
from mswavenet.autodiff import ShapeMismatchError, Variable
from mswavenet.graph import (
    AdjacencyMatrix,
    NodeEmbeddings,
    adjacency_softmax,
    export_adjacency,
    gcn_forward,
    load_adjacency_csv,
)

import batch_major


def embeddings_from(e1, e2):
    emb = NodeEmbeddings(e1.shape[0], e1.shape[1])
    emb.e1 = Variable(np.asarray(e1, dtype=np.float64))
    emb.e2 = Variable(np.asarray(e2, dtype=np.float64))
    return emb


class TestAdjacencySoftmax:
    def test_zero_embeddings_uniform(self):
        adj = adjacency_softmax(embeddings_from(np.zeros((4, 3)), np.zeros((4, 3))))
        np.testing.assert_allclose(adj.values.value, np.full((4, 4), 0.25))

    def test_rows_stochastic(self, rng):
        emb = NodeEmbeddings(5, 10, rng)
        adj = adjacency_softmax(emb)
        np.testing.assert_allclose(adj.values.value.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(adj.values.value > 0)

    def test_generically_asymmetric(self, rng):
        adj = adjacency_softmax(NodeEmbeddings(5, 10, rng)).values.value
        assert not np.allclose(adj, adj.T)

    def test_constant_column_shift_invariance(self, rng):
        e1 = rng.normal(size=(4, 4))
        e2 = rng.normal(size=(4, 4))
        base = adjacency_softmax(embeddings_from(e1, e2)).values.value
        # softmax is invariant to adding a constant to a whole row of the
        # logits; shift one row of E1 along v with E2 @ v = const.
        v = np.linalg.solve(e2, np.full(4, 2.5))
        e1_shift = e1.copy()
        e1_shift[2] += v
        shifted = adjacency_softmax(embeddings_from(e1_shift, e2)).values.value
        np.testing.assert_allclose(shifted[2], base[2], atol=1e-9)

    def test_gradients_flow_to_embeddings(self, rng):
        emb = NodeEmbeddings(3, 4, rng)
        adj = adjacency_softmax(emb)
        ad.backward(ad.total(ad.multiply(adj.values, Variable(rng.normal(size=(3, 3)), requires_grad=False))))
        assert emb.e1.grad is not None and np.any(emb.e1.grad != 0)
        assert emb.e2.grad is not None and np.any(emb.e2.grad != 0)


def identity_adj(n):
    return AdjacencyMatrix(Variable(np.eye(n), requires_grad=False), [f"n{i}" for i in range(n)])


class TestGcnForward:
    """Inputs and outputs are [C, W, B, N]: channel, time, batch, node."""

    def test_identity_map(self, rng):
        x = rng.normal(size=(3, 5, 2, 4))
        out = gcn_forward(
            Variable(x), identity_adj(4), Variable(np.eye(3)), Variable(np.zeros(3))
        )
        np.testing.assert_allclose(out.value, x)

    def test_uniform_adjacency_node_mean(self, rng):
        n = 4
        x = rng.normal(size=(3, 5, 2, n))
        adj = AdjacencyMatrix(
            Variable(np.full((n, n), 1.0 / n), requires_grad=False), list("abcd")
        )
        out = gcn_forward(Variable(x), adj, Variable(np.eye(3)), Variable(np.zeros(3)))
        expected = np.repeat(x.mean(axis=3, keepdims=True), n, axis=3)
        np.testing.assert_allclose(out.value, expected)

    def test_embedding_gradients_through_adjacency(self, rng):
        emb = NodeEmbeddings(4, 3, rng)
        adj = adjacency_softmax(emb)
        x = Variable(rng.normal(size=(3, 5, 2, 4)))
        out = gcn_forward(x, adj, Variable(rng.normal(size=(3, 3))), Variable(np.zeros(3)))
        ad.backward(ad.mse_loss(out, np.zeros(out.value.shape)))
        assert np.any(emb.e1.grad != 0)
        assert np.any(emb.e2.grad != 0)

    def test_node_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            gcn_forward(
                Variable(np.zeros((2, 3, 1, 5))),
                identity_adj(4),
                Variable(np.eye(2)),
                Variable(np.zeros(2)),
            )

    def test_permutation_equivariance(self, rng):
        n = 3
        e1 = rng.normal(size=(n, 4))
        e2 = rng.normal(size=(n, 4))
        theta = rng.normal(size=(2, 2))
        x = rng.normal(size=(2, 6, 1, n))
        perm = np.array([2, 0, 1])
        out = gcn_forward(
            Variable(x), adjacency_softmax(embeddings_from(e1, e2)), Variable(theta), Variable(np.zeros(2))
        ).value
        out_p = gcn_forward(
            Variable(x[..., perm]),
            adjacency_softmax(embeddings_from(e1[perm], e2[perm])),
            Variable(theta),
            Variable(np.zeros(2)),
        ).value
        np.testing.assert_allclose(out_p, out[..., perm], atol=1e-12)

    def test_matches_batch_major_reference(self, rng):
        """Forward and every gradient, the adjacency's included, equal the
        [B, C, N, W] implementation."""
        x_val = rng.normal(size=(3, 5, 2, 4))
        w_val = rng.normal(size=(2, 5, 2, 4))
        theta_val, bias_val = rng.normal(size=(2, 3)), rng.normal(size=2)
        emb = NodeEmbeddings(4, 3, rng)
        to_bm = batch_major.from_time_major
        results = []
        for gcn, x_in, w in ((gcn_forward, x_val, w_val),
                             (batch_major.gcn_forward, to_bm(x_val), to_bm(w_val))):
            emb.e1.grad = emb.e2.grad = None
            x, theta, bias = Variable(x_in), Variable(theta_val), Variable(bias_val)
            out = gcn(x, adjacency_softmax(emb), theta, bias)
            ad.backward(ad.total(ad.multiply(out, Variable(w, requires_grad=False))))
            results.append([out.value, x.grad, theta.grad, bias.grad, emb.e1.grad, emb.e2.grad])
        results[0][:2] = [to_bm(a) for a in results[0][:2]]
        for got, want in zip(*results):
            assert np.abs(got - want).max() <= 1e-12


class TestExportAdjacency:
    def test_round_trip_and_headers(self, tmp_path, rng):
        emb = NodeEmbeddings(5, 10, rng)
        names = ["Esbjerg", "Aalborg", "Aarhus", "Odense", "Roskilde"]
        adj = adjacency_softmax(emb, names)
        path = tmp_path / "adj.csv"
        export_adjacency(adj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node"] + names
        assert len(rows) == 6
        for row in rows[1:]:
            assert sum(float(v) for v in row[1:]) == pytest.approx(1.0, abs=1e-9)
        back = load_adjacency_csv(path)
        assert back.node_order == names
        np.testing.assert_allclose(back.values.value, adj.values.value, atol=1e-9)

    def test_uniform_export(self, tmp_path):
        adj = AdjacencyMatrix(
            Variable(np.full((5, 5), 0.2), requires_grad=False), [f"n{i}" for i in range(5)]
        )
        path = tmp_path / "adj.csv"
        export_adjacency(adj, path)
        back = load_adjacency_csv(path)
        np.testing.assert_array_equal(back.values.value, np.full((5, 5), 0.2))
