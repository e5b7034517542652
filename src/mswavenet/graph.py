"""Learnable adjacency construction and the graph convolution unit.

The default adjacency is built from two learnable node-embedding matrices:
row-wise softmax of E1 @ E2^T, giving a dense, row-stochastic, generally
asymmetric N x N matrix.
"""

from __future__ import annotations

import csv

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Variable


class NodeEmbeddings:
    """Two learnable N x C embedding matrices feeding the adjacency."""

    def __init__(self, num_nodes: int, width: int = 10, rng=None, init_scale: float = 0.5):
        if rng is None:
            rng = np.random.default_rng(0)
        self.num_nodes = num_nodes
        self.width = width
        self.e1 = Variable(rng.uniform(-init_scale, init_scale, size=(num_nodes, width)))
        self.e2 = Variable(rng.uniform(-init_scale, init_scale, size=(num_nodes, width)))

    def parameters(self):
        return [("adjacency.e1", self.e1), ("adjacency.e2", self.e2)]


class AdjacencyMatrix:
    """A materialized N x N adjacency with its node labels."""

    def __init__(self, values: Variable, node_order):
        self.values = values
        self.node_order = list(node_order)


def adjacency_softmax(emb: NodeEmbeddings, node_order=None) -> AdjacencyMatrix:
    """Row-stochastic adjacency: softmax_rows(E1 @ E2^T)."""
    logits = ad.matmul(emb.e1, ad.permute(emb.e2, (1, 0)))
    values = ad.softmax_rows(logits)
    if node_order is None:
        node_order = [f"node{i}" for i in range(emb.num_nodes)]
    return AdjacencyMatrix(values, node_order)


def gcn_forward(x: Variable, adj: AdjacencyMatrix, theta: Variable, bias: Variable) -> Variable:
    """Graph convolution of x [C, W, B, N]: mix nodes by the shared
    adjacency, then channels.

    out[:, t, b, n] = theta @ (sum_j adj[n, j] * x[:, t, b, j]) + bias
    """
    adj_v = adj.values
    if x.value.ndim != 4:
        raise ShapeMismatchError("gcn_forward expects x [C,W,B,N]")
    n = x.value.shape[3]
    if adj_v.value.shape != (n, n):
        raise ShapeMismatchError(
            f"adjacency shape {adj_v.value.shape} does not match node axis {n}"
        )
    mixed = _node_mix(x, adj_v)
    return ad.conv_1x1(mixed, theta, bias)


def _node_mix(x: Variable, adj: Variable) -> Variable:
    # adj [N,N] acts on the trailing node axis: one GEMM over the
    # (C*W*B, N) view of x
    a, shape = adj.value, x.value.shape
    n = a.shape[0]
    x2 = x.value.reshape(-1, n)
    out_val = (x2 @ a.T).reshape(shape)

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        adj.accumulate_grad(g2.T @ x2)
        x.accumulate_grad((g2 @ a).reshape(shape))

    return Variable(out_val, (x, adj), backward_fn)


def export_adjacency(adj: AdjacencyMatrix, path) -> None:
    """Write the matrix as CSV with station names as row/column labels."""
    values = adj.values.value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + adj.node_order)
        for name, row in zip(adj.node_order, values):
            writer.writerow([name] + [repr(float(v)) for v in row])
