"""Weighted maximum independent set (MIS) — a many-constraint stress test.

MIS maximizes total vertex weight subject to one inequality ``x_i + x_j <=
1`` per edge: a problem whose constraint count grows with the graph, unlike
QKP (1 constraint) and MKP (a handful).  It stresses SAIM's multiplier
vector (one lambda per edge) and is classic IM territory — the Lucas
mapping [12] treats it with uniform penalties, which is exactly the
hand-tuning SAIM is designed to remove.

Exact reference: a maximum-weight independent set of G is a maximum-weight
clique of the complement graph, solved by networkx for test sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_binary_vector

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class MisInstance:
    """One weighted MIS instance on an undirected simple graph."""

    weights: np.ndarray
    edges: tuple
    name: str = ""

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        if np.any(weights < 0):
            raise ValueError("vertex weights must be non-negative")
        n = weights.size
        seen = set()
        cleaned = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                cleaned.append(key)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", tuple(sorted(cleaned)))

    @property
    def num_vertices(self) -> int:
        """Number of graph vertices."""
        return self.weights.size

    @property
    def num_edges(self) -> int:
        """Number of (deduplicated) edges = number of constraints."""
        return len(self.edges)

    def total_weight(self, x) -> float:
        """Weight of a vertex selection."""
        x = check_binary_vector(x, self.num_vertices).astype(float)
        return float(self.weights @ x)

    def is_independent(self, x) -> bool:
        """True iff no selected pair of vertices is adjacent."""
        x = check_binary_vector(x, self.num_vertices)
        return all(not (x[u] and x[v]) for u, v in self.edges)

    def to_graph(self) -> nx.Graph:
        """The underlying networkx graph (with ``weight`` node attributes)."""
        import networkx as nx

        graph = nx.Graph()
        for v in range(self.num_vertices):
            graph.add_node(v, weight=self.weights[v])
        graph.add_edges_from(self.edges)
        return graph

    def to_problem(self) -> ConstrainedProblem:
        """Minimize ``-w^T x`` s.t. ``x_u + x_v <= 1`` for every edge."""
        n = self.num_vertices
        m = self.num_edges
        a = np.zeros((m, n))
        for row, (u, v) in enumerate(self.edges):
            a[row, u] = 1.0
            a[row, v] = 1.0
        return ConstrainedProblem(
            quadratic=np.zeros((n, n)),
            linear=-self.weights,
            inequalities=LinearConstraints(a, np.ones(m)),
            name=self.name or f"mis-{n}",
        )

    def exact_optimum(self) -> tuple[np.ndarray, float]:
        """Exact maximum-weight independent set via complement-graph clique.

        networkx's ``max_weight_clique`` needs integer weights; fractional
        weights are scaled (exactness preserved for the rational weights the
        generators produce).
        """
        import networkx as nx

        scale = 1
        weights = self.weights
        if not np.allclose(weights, np.round(weights)):
            scale = 1000
            weights = np.round(weights * scale)
        complement = nx.complement(self.to_graph())
        for v in complement.nodes:
            complement.nodes[v]["weight"] = int(weights[v])
        clique, _ = nx.max_weight_clique(complement, weight="weight")
        x = np.zeros(self.num_vertices, dtype=np.int8)
        x[list(clique)] = 1
        return x, self.total_weight(x)


def random_mis(
    num_vertices: int,
    edge_probability: float = 0.3,
    weight_high: int = 20,
    rng=None,
    name: str = "",
) -> MisInstance:
    """Random Erdos–Renyi weighted MIS instance."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = ensure_rng(rng)
    weights = rng.integers(1, weight_high + 1, size=num_vertices).astype(float)
    edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.uniform() < edge_probability
    ]
    return MisInstance(weights, tuple(edges), name=name or f"mis-{num_vertices}")
