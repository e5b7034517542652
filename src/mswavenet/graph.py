"""Learnable adjacency construction and the graph convolution unit.

The adjacency is built from two learnable N x width node-embedding
matrices, the network's ``adjacency.e1`` and ``adjacency.e2`` parameters:
row-wise softmax of E1 @ E2^T, giving a dense, row-stochastic, generally
asymmetric N x N matrix.
"""

from __future__ import annotations

import csv

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeMismatchError, Variable


class AdjacencyMatrix:
    """A materialized N x N adjacency with its node labels."""

    def __init__(self, values: Variable, node_order):
        self.values = values
        self.node_order = list(node_order)


def adjacency_softmax(e1: Variable, e2: Variable, node_order=None) -> AdjacencyMatrix:
    """Row-stochastic adjacency of the node embeddings e1, e2 [N, width]:
    softmax_rows(e1 @ e2^T)."""
    logits = ad.matmul(e1, ad.permute(e2, (1, 0)))
    values = ad.softmax_rows(logits)
    if node_order is None:
        node_order = [f"node{i}" for i in range(values.value.shape[0])]
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
