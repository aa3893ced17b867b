"""Communication graphs: generators, spectra, edge sampling, virtual-node expansion.

Graphs are immutable after construction and safe to share across concurrent
runs.  Spectra are computed by dense symmetric eigendecomposition, which keeps
results exact at desk scale (up to DENSE_EIG_CAP = 2000 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Dense eigendecomposition cap; larger graphs are refused rather than solved
# approximately.
DENSE_EIG_CAP = 2000

WATTS_STROGATZ_MAX_RETRIES = 100


def _component_count(n: int, edges: np.ndarray) -> int:
    """Connected components, by min-label propagation with pointer jumping."""
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, edges[:, 0], label[edges[:, 1]])
        np.minimum.at(new, edges[:, 1], label[edges[:, 0]])
        new = new[new]
        if np.array_equal(new, label):
            return int(np.count_nonzero(label == np.arange(n)))
        label = new


# eq=False: the generated == and hash cannot compare an array field.
@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1; edges is a read-only (m, 2)
    int64 array of rows i < j (a tuple of pairs is converted)."""

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        # len, not -1: rows that are not pairs fail to reshape
        e = np.array(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        i, j = e[:, 0], e[:, 1]
        bad = np.flatnonzero(((e < 0) | (e >= self.n)).any(axis=1))
        if bad.size:
            raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={self.n}")
        bad = np.flatnonzero(i == j)
        if bad.size:
            raise ValueError(f"self-loop at node {i[bad[0]]}")
        bad = np.flatnonzero(i > j)
        if bad.size:
            raise ValueError(f"edge ({i[bad[0]]}, {j[bad[0]]}) not canonically ordered")
        # Sort-and-compare; np.unique is ~10x slower on the complete graph.
        key = np.sort(i * self.n + j)
        dup = key[1:][key[1:] == key[:-1]]
        if dup.size:
            raise ValueError(f"duplicate edge ({dup[0] // self.n}, {dup[0] % self.n})")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)

    @classmethod
    def from_edges(cls, n, edges):
        """Build a graph, canonicalizing (and deduplicating) any iterable of pairs."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        e = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return cls(n=n, edges=np.unique(np.sort(e, axis=1), axis=0))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.bincount(self.edges.ravel(), minlength=self.n)
        d.setflags(write=False)
        return d

    def laplacian(self) -> np.ndarray:
        """L = D - A."""
        lap = np.diag(self.degrees.astype(float))
        i, j = self.edges.T
        lap[i, j] = lap[j, i] = -1.0
        return lap

    @cached_property
    def _components(self) -> int:
        return _component_count(self.n, self.edges)

    @cached_property
    def _cover_components(self) -> int:
        # the bipartite double cover: edges (i, j+n) and (i+n, j) on 2n nodes
        cover = np.concatenate([self.edges + [0, self.n], self.edges + [self.n, 0]])
        return _component_count(2 * self.n, cover)

    def is_connected(self) -> bool:
        return self._components == 1

    def is_bipartite(self) -> bool:
        # a component is bipartite iff it splits in two in the double cover
        return self._cover_components == 2 * self._components

    def is_complete(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2


def complete_graph(n: int) -> Graph:
    return Graph(n=n, edges=np.column_stack(np.triu_indices(n, 1)))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def watts_strogatz_graph(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Classic Watts-Strogatz small-world graph, resampled until connected.

    Starts from a ring lattice of even mean degree k and rewires the far
    ("clockwise") endpoint of each lattice edge independently with probability
    p, to a uniform non-self, non-duplicate target.  An odd k is rounded down
    to the nearest even value.  Draw order, which fixes the graphs: one
    rng.random() per lattice edge, lane by lane (every i at distance 1, then
    2, ...), and rng.integers(free) only when a free target exists.
    """
    if k % 2 == 1:
        k -= 1
    if not (2 <= k < n):
        raise ValueError(f"watts_strogatz needs even k with 2 <= k < n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"rewiring probability must be in [0, 1], got {p}")
    lattice = [(i, (i + lane) % n) for lane in range(1, k // 2 + 1) for i in range(n)]
    for _ in range(WATTS_STROGATZ_MAX_RETRIES):
        # the lattice neighbours and i itself: a free target is one not in nbrs[i]
        nbrs = [{(i + d) % n for d in range(-(k // 2), k // 2 + 1)} for i in range(n)]
        for i, j in lattice:
            if rng.random() >= p or len(nbrs[i]) == n:
                continue
            # rewire the far endpoint j -> the t-th free node in ascending order
            t = int(rng.integers(n - len(nbrs[i])))
            for v in sorted(nbrs[i]):
                if v > t:
                    break
                t += 1
            nbrs[i].remove(j)
            nbrs[j].remove(i)
            nbrs[i].add(t)
            nbrs[t].add(i)
        g = Graph.from_edges(n, [(i, j) for i in range(n) for j in nbrs[i] if i < j])
        if g.is_connected():
            return g
    raise RuntimeError(
        f"could not sample a connected Watts-Strogatz graph in "
        f"{WATTS_STROGATZ_MAX_RETRIES} attempts (n={n}, k={k}, p={p})")


def spectral_gap(g: Graph) -> float:
    """1 - lambda_2 of the expected gossip matrix I - L/(2m).

    Equivalently beta_{n-1} / (2m) with beta_{n-1} the second-smallest
    Laplacian eigenvalue.  Requires a connected, non-bipartite graph.
    """
    if g.n > DENSE_EIG_CAP:
        raise ValueError(f"graph too large for dense spectra (n={g.n} > {DENSE_EIG_CAP})")
    if not g.is_connected():
        raise ValueError("spectral gap requires a connected graph")
    if g.is_bipartite():
        raise ValueError("spectral gap requires a non-bipartite graph")
    beta = np.linalg.eigvalsh(g.laplacian())
    return float(beta[1] / (2 * g.num_edges))


def tensor_with_complete(g: Graph, k: int) -> Graph:
    """Expand each node into k virtual nodes: the tensor product with K_k
    with a loop at every node.

    The adjacency of the product is J_k (x) A, i.e. virtual copies (i, a) and
    (j, b) are linked iff (i, j) is an edge of g, for all a, b.  This gives
    k n nodes and k^2 m edges, and divides the spectral gap by k for
    non-complete g.  Virtual node (i, a) has index i*k + a.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if g.is_complete():
        raise ValueError("virtual-node expansion is undefined for complete graphs "
                         "(the gap-division identity requires a non-complete base)")
    virt = g.edges[:, :, None] * k + np.arange(k)  # (m, 2, k): copies of each endpoint
    u, v = np.broadcast_arrays(virt[:, 0, :, None], virt[:, 1, None, :])
    return Graph.from_edges(g.n * k, np.column_stack([u.ravel(), v.ravel()]))


def sample_edge(g: Graph, rng: np.random.Generator) -> tuple[int, int]:
    """Uniform edge draw; both orientations of the returned pair equally likely."""
    if g.num_edges < 1:
        raise ValueError("graph has no edges")
    i, j = g.edges[rng.integers(g.num_edges)].tolist()
    if rng.random() < 0.5:
        return j, i
    return i, j


def activation_probabilities(g: Graph) -> np.ndarray:
    """Per-node probability of being an endpoint of a uniform edge draw.

    p_k = d_k / m, so that sum_k p_k = 2 (each draw touches two nodes).
    """
    return g.degrees / g.num_edges


def read_edgelist(path) -> Graph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("edge-list header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in fh:
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    g = Graph.from_edges(n, edges)
    if len(edges) != m or g.num_edges != m:
        raise ValueError(f"expected {m} edges, found {len(edges)} ({g.num_edges} distinct)")
    return g


# kind -> builder, called with the spec's other keys (watts_strogatz: and the rng)
TOPOLOGIES = {"complete": complete_graph, "cycle": cycle_graph,
              "watts_strogatz": watts_strogatz_graph, "file": read_edgelist}


def build_topology(spec: dict, rng: np.random.Generator) -> Graph:
    """The communication graph of a topology spec: complete, cycle or
    watts_strogatz (k, p, drawing from rng) on n >= 3 nodes, or a file's."""
    kind, params = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    if kind not in TOPOLOGIES:
        raise ValueError(f"unknown topology kind: {kind!r}")
    if params.get("n", 3) < 3:
        raise ValueError(f"need at least 3 nodes, got {params['n']}")
    if kind == "watts_strogatz":
        params["rng"] = rng
    return TOPOLOGIES[kind](**params)
