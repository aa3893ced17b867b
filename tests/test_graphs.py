import hashlib
import itertools
import time

import numpy as np
import pytest

from pairgossip import cli, graphs
from pairgossip.graphs import (Graph, activation_probabilities, build_topology,
                               complete_graph, cycle_graph, read_edgelist,
                               sample_edge, spectral_gap, tensor_with_complete,
                               watts_strogatz_graph)
from pairgossip.sync_gossip import TOPOLOGY, stream_rng

from oracles import expected_gossip_matrix, watts_strogatz_reference, write_edgelist

# sha256 of the little-endian int64 edge array of the perfbench `auc_sync_eval`
# graph, watts_strogatz_graph(699, 6, 0.1, stream_rng(seed, TOPOLOGY)), by seed
PAPER_SIZE_WATTS_STROGATZ = {
    0: "6bf6d3447933de16f806576a8a6f926fa979a7588a602f5a4dde397e11ec503a",
    1: "fc06057cc9f6c8ecfde598264be7d0ed77c8158d70868445ebddc3c5b7535996",
    2: "4bba0959318c2ad4ae33142a48baa03c662a36c0face27bf9cf27d9c33972f6f",
    3: "2e15379613cb1144f4d072adfc239f732ca6fd44b6e121c0d97f2daf226716c3",
    4: "6b3995a1d3133c3603076be0afd2646538abb453d1f93aead3b1b2c74967e1a6",
    1606: "54ceba8d9a13d431a2236d139ac83dbe7269f200a5f8180a311642e398273b14",
}


def random_connected_graph(n, rng, extra=3):
    """Random spanning tree plus a few chords; retried until non-bipartite."""
    while True:
        edges = set()
        perm = rng.permutation(n)
        for a, b in zip(perm[:-1], perm[1:]):
            edges.add((min(a, b), max(a, b)))
        for _ in range(extra):
            i, j = rng.integers(n, size=2)
            if i != j:
                edges.add((min(i, j), max(i, j)))
        g = Graph.from_edges(n, edges)
        if not g.is_bipartite() and not g.is_complete():
            return g


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=((0, 0),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=((0, 3),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=((0, 1), (0, 1)))

    def test_rejects_rows_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            Graph(n=5, edges=((0, 1, 2), (3, 4, 0)))

    def test_from_edges_canonicalizes(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_edges_are_read_only(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError):
            g.edges[0, 1] = 3
        with pytest.raises(ValueError):
            g.degrees[0] = 0

    def test_degree_sum_is_twice_edges(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(4, 12)), rng)
            assert g.degrees.sum() == 2 * g.num_edges


class TestComponents:
    def test_connected_and_bipartite_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        for _ in range(400):
            n = int(rng.integers(1, 14))
            density = rng.uniform(0.0, 0.6)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < density]
            g = Graph.from_edges(n, pairs)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from(pairs)
            assert g.is_connected() == nx.is_connected(ref)
            assert g.is_bipartite() == nx.is_bipartite(ref)

    def test_counts_are_computed_once(self, monkeypatch):
        calls = []
        count = graphs._component_count
        monkeypatch.setattr(graphs, "_component_count",
                            lambda *a: calls.append(1) or count(*a))
        g = cycle_graph(9)
        for _ in range(2):
            assert g.is_connected() and not g.is_bipartite()
            spectral_gap(g)
        assert len(calls) == 2  # the graph's and its double cover's


class TestTopologies:
    def test_complete_k4(self):
        g = build_topology({"kind": "complete", "n": 4}, None)
        assert g.num_edges == 6
        assert all(d == 3 for d in g.degrees)

    def test_cycle_c5(self):
        g = build_topology({"kind": "cycle", "n": 5}, None)
        assert g.num_edges == 5
        assert all(d == 2 for d in g.degrees)

    def test_watts_strogatz_degree_sum_and_connectivity(self):
        rng = np.random.default_rng(1)
        g = build_topology({"kind": "watts_strogatz", "n": 100, "k": 5, "p": 0.3},
                           rng)
        # odd k rounds down to 4; rewiring preserves the edge count
        assert g.degrees.sum() == 100 * 4
        assert g.is_connected()

    @pytest.mark.parametrize("seed", sorted(PAPER_SIZE_WATTS_STROGATZ))
    def test_watts_strogatz_paper_size_edges_are_pinned(self, seed):
        # a rewrite of the rewiring loop must draw the very same graphs
        g = watts_strogatz_graph(699, 6, 0.1, stream_rng(seed, TOPOLOGY))
        digest = hashlib.sha256(g.edges.astype("<i8").tobytes()).hexdigest()
        assert digest == PAPER_SIZE_WATTS_STROGATZ[seed]

    @pytest.mark.parametrize("n", [5, 6, 10, 20, 50])
    def test_watts_strogatz_matches_the_reference(self, n):
        # the grid retries after a disconnected draw, e.g. at (20, 2, 0.3, seed 2),
        # and finds no free target for any rewiring at (5, 4, 1.0)
        for k, p, seed in itertools.product((2, 4, 5), (0.0, 0.3, 0.6, 1.0), range(4)):
            g = watts_strogatz_graph(n, k, p, np.random.default_rng(seed))
            ref = watts_strogatz_reference(n, k, p, np.random.default_rng(seed))
            assert np.array_equal(g.edges, ref.edges), (k, p, seed)

    def test_watts_strogatz_builds_in_linear_time(self):
        start = time.perf_counter()
        watts_strogatz_graph(10_000, 6, 0.1, stream_rng(0, TOPOLOGY))
        assert time.perf_counter() - start < 2.0

    def test_watts_strogatz_p_zero_is_ring_lattice(self):
        rng = np.random.default_rng(2)
        g = watts_strogatz_graph(10, 4, 0.0, rng)
        assert all(d == 4 for d in g.degrees)

    def test_min_size(self):
        with pytest.raises(ValueError):
            build_topology({"kind": "complete", "n": 2}, None)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_topology({"kind": "torus", "n": 10}, None)


class TestLaplacian:
    def test_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(4, 10)), rng)
            L = g.laplacian()
            A = np.zeros((g.n, g.n))
            A[g.edges[:, 0], g.edges[:, 1]] = A[g.edges[:, 1], g.edges[:, 0]] = 1.0
            assert np.array_equal(L, np.diag(g.degrees) - A)
            assert np.allclose(L @ np.ones(g.n), 0.0)
            w = np.linalg.eigvalsh(L)
            assert abs(w[0]) < 1e-10

    def test_expected_gossip_matrix_exact_summation(self):
        # Average the per-edge matrices W(i,j) = I - (e_i-e_j)(e_i-e_j)^T/2
        # over uniform edges; must equal I - L/(2m).
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(4, 9)), rng)
            acc = np.zeros((g.n, g.n))
            for (i, j) in g.edges:
                w = np.eye(g.n)
                v = np.zeros(g.n)
                v[i], v[j] = 1.0, -1.0
                acc += w - 0.5 * np.outer(v, v)
            acc /= g.num_edges
            assert np.allclose(acc, expected_gossip_matrix(g), atol=1e-12)


class TestSpectralGap:
    def test_complete_closed_form(self):
        for n in (4, 7, 25):
            assert spectral_gap(complete_graph(n)) == pytest.approx(1.0 / (n - 1), abs=1e-12)

    def test_cycle_closed_form(self):
        for n in (5, 9, 101):
            expect = (1.0 - np.cos(2 * np.pi / n)) / n
            assert spectral_gap(cycle_graph(n)) == pytest.approx(expect, abs=1e-12)

    def test_complete_n4_is_one_third(self):
        assert spectral_gap(complete_graph(4)) == pytest.approx(1 / 3, abs=1e-12)

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            spectral_gap(g)

    def test_rejects_bipartite(self):
        with pytest.raises(ValueError):
            spectral_gap(cycle_graph(6))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            spectral_gap(cycle_graph(2001))


class TestTensorExpansion:
    def test_counts(self):
        g = cycle_graph(5)
        t = tensor_with_complete(g, 2)
        assert t.n == 10
        assert t.num_edges == 4 * g.num_edges

    def test_copies_of_a_node_are_not_linked(self):
        t = tensor_with_complete(cycle_graph(5), 3)
        assert not np.any(t.edges[:, 0] // 3 == t.edges[:, 1] // 3)

    def test_gap_division(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(5, 12)), rng)
            for k in (2, 3):
                t = tensor_with_complete(g, k)
                assert t.num_edges == k * k * g.num_edges
                assert spectral_gap(t) == pytest.approx(spectral_gap(g) / k, abs=1e-9)

    def test_rejects_complete_base(self):
        with pytest.raises(ValueError):
            tensor_with_complete(complete_graph(3), 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            tensor_with_complete(cycle_graph(5), 1)


class TestEdgeSampling:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert sorted(sample_edge(g, rng)) == [0, 1]

    def test_uniformity_k3(self):
        g = complete_graph(3)
        rng = np.random.default_rng(42)
        draws = 300_000
        counts = {e: 0 for e in map(tuple, g.edges.tolist())}
        orient = 0
        for _ in range(draws):
            i, j = sample_edge(g, rng)
            counts[(min(i, j), max(i, j))] += 1
            orient += i < j
        p = 1 / 3
        sigma = np.sqrt(draws * p * (1 - p))
        for c in counts.values():
            assert abs(c - draws * p) < 3 * sigma
        assert abs(orient - draws / 2) < 3 * np.sqrt(draws * 0.25)

    def test_uniformity_cycle4(self):
        g = cycle_graph(4)
        rng = np.random.default_rng(8)
        draws = 200_000
        counts = {e: 0 for e in map(tuple, g.edges.tolist())}
        for _ in range(draws):
            i, j = sample_edge(g, rng)
            counts[(min(i, j), max(i, j))] += 1
        sigma = np.sqrt(draws * 0.25 * 0.75)
        for c in counts.values():
            assert abs(c - draws * 0.25) < 3 * sigma


class TestActivationProbabilities:
    def test_cycle_and_complete(self):
        assert np.allclose(activation_probabilities(cycle_graph(8)), 2 / 8)
        n = 10
        assert np.allclose(activation_probabilities(complete_graph(n)), 2 / n)

    def test_sum_is_two(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(4, 15)), rng)
            assert activation_probabilities(g).sum() == pytest.approx(2.0, abs=1e-12)

    def test_matches_empirical_activation_frequency(self):
        rng = np.random.default_rng(10)
        g = watts_strogatz_graph(12, 4, 0.4, rng)
        p = activation_probabilities(g)
        draws = 200_000
        hits = np.zeros(g.n)
        for _ in range(draws):
            i, j = sample_edge(g, rng)
            hits[i] += 1
            hits[j] += 1
        for k in range(g.n):
            sigma = np.sqrt(draws * p[k] * (1 - p[k]))
            assert abs(hits[k] - draws * p[k]) < 3 * sigma


class TestEdgelistIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        g = random_connected_graph(9, rng)
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        for back in (read_edgelist(path),
                     build_topology({"kind": "file", "path": str(path)}, None)):
            assert back.n == g.n and np.array_equal(back.edges, g.edges)

    def test_rejects_bad_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 5\n0 1\n")
        with pytest.raises(ValueError):
            read_edgelist(path)

    def test_rejects_duplicate_edges(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("4 4\n0 1\n1 0\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="3 distinct"):
            read_edgelist(path)

    @pytest.mark.parametrize("body, message", [
        pytest.param("", "header must be 'n m'", id="empty"),
        pytest.param("3\n0 1\n", "header must be 'n m'", id="header_one_field"),
        pytest.param("3 1\n0 1 2\n", "malformed edge line", id="three_fields"),
        pytest.param("3 1\n0 x\n", "invalid literal", id="not_an_integer"),
        pytest.param("3 1\n0 5\n", "out of range", id="out_of_range"),
        pytest.param("3 1\n1 1\n", "self-loop", id="self_loop"),
    ])
    def test_refuses_malformed_files(self, body, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            read_edgelist(path)
        assert cli.main(["spectral-gap", "--kind", "file", "--path", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spectral-gap: ") and message in err
