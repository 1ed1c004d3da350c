import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moptrans.errors import InstabilityError
from moptrans.model import TWO_PI, Configuration
from moptrans.response import transfer_from_rates
from moptrans.sfg import (
    FlowGraph,
    antistokes_graph_from_rates,
    graph_from_rates,
    mason_gain,
    solve_gain,
    stokes_graph_from_rates,
)

from conftest import make_rates_op
from test_response import detuned_ops


def constant(value):
    return lambda w: value


def random_graph(rng, max_nodes=10, density=0.3, max_cycles=400):
    """Seeded random flow graph with complex gains in the half-unit disk.
    Regenerates when nearly singular or combinatorially extreme."""
    while True:
        n = int(rng.integers(3, max_nodes + 1))
        g = FlowGraph()
        names = [f"n{i}" for i in range(n)]
        for name in names:
            g.add_node(name)
        count = 0
        for i in range(n):
            for j in range(n):
                if i == j and n > 3 and rng.random() > 0.1:
                    continue
                if rng.random() < density:
                    r = 0.5 * math.sqrt(rng.random())
                    phi = rng.uniform(0.0, TWO_PI)
                    g.add_edge(names[i], names[j], constant(r * np.exp(1j * phi)))
                    count += 1
        if count == 0:
            continue
        if len(g.simple_cycles()) > max_cycles:
            continue
        src, dst = rng.choice(n, size=2, replace=True)
        try:
            solve_gain(g, names[src], names[dst], 0.0)
        except InstabilityError:
            continue
        return g, names[src], names[dst]


class TestMasonBasics:
    def test_single_edge(self):
        g = FlowGraph()
        g.add_edge("a", "b", constant(2.5 - 1.0j))
        res = mason_gain(g, "a", "b", 0.0)
        assert res.value == pytest.approx(2.5 - 1.0j, rel=1e-14)
        assert res.n_paths == 1 and res.n_loops == 0
        assert solve_gain(g, "a", "b", 0.0) == pytest.approx(2.5 - 1.0j, rel=1e-14)

    def test_textbook_single_loop(self):
        # path P through a node carrying a self-loop L -> P/(1 - L)
        g = FlowGraph()
        p1, p2, loop = 0.7 + 0.1j, -1.3j, 0.4 + 0.2j
        g.add_edge("s", "m", constant(p1))
        g.add_edge("m", "d", constant(p2))
        g.add_edge("m", "m", constant(loop))
        res = mason_gain(g, "s", "d", 0.0)
        assert res.value == pytest.approx(p1 * p2 / (1.0 - loop), rel=1e-14)
        assert res.n_loops == 1

    def test_parallel_edges_merge(self):
        g = FlowGraph()
        g.add_edge("a", "b", constant(1.0))
        g.add_edge("a", "b", constant(2.0 + 1.0j))
        assert len(g.edges) == 1
        assert mason_gain(g, "a", "b", 0.0).value == pytest.approx(3.0 + 1.0j)

    def test_self_gain(self):
        # src == dst with a self-loop: 1/(1 - L)
        g = FlowGraph()
        g.add_edge("a", "a", constant(0.25j))
        res = mason_gain(g, "a", "a", 0.0)
        assert res.value == pytest.approx(1.0 / (1.0 - 0.25j), rel=1e-14)
        assert solve_gain(g, "a", "a", 0.0) == pytest.approx(res.value, rel=1e-14)

    def test_no_path_is_zero(self):
        g = FlowGraph()
        g.add_edge("a", "b", constant(1.0))
        g.add_node("c")
        assert mason_gain(g, "a", "c", 0.0).value == 0.0
        assert solve_gain(g, "a", "c", 0.0) == 0.0

    @pytest.mark.parametrize("solver", [mason_gain, solve_gain])
    @pytest.mark.parametrize("src,dst", [("a", "typo"), ("typo", "b"), ("typo", "typo")])
    def test_unknown_node_is_key_error(self, solver, src, dst):
        g = FlowGraph()
        g.add_edge("a", "b", constant(1.0))
        with pytest.raises(KeyError, match="typo"):
            solver(g, src, dst, 0.0)


def brute_cycles(g):
    """Every elementary cycle as a tuple rotated to start at its earliest
    node, from all ordered node sequences whose consecutive edges exist."""
    order = {name: i for i, name in enumerate(g.nodes)}
    edges = set(g.edges)
    found = set()
    for k in range(1, len(order) + 1):
        for seq in itertools.permutations(order, k):
            if all(pair in edges for pair in zip(seq, seq[1:] + seq[:1])):
                first = min(range(k), key=lambda i: order[seq[i]])
                found.add(seq[first:] + seq[:first])
    return found


def brute_paths(g, src, dst):
    """Every src -> dst path with no repeated node, from all orderings of
    every subset of the other nodes."""
    if src == dst:
        return {(src,)}
    edges = set(g.edges)
    others = [n for n in g.nodes if n not in (src, dst)]
    found = set()
    for k in range(len(others) + 1):
        for inner in itertools.permutations(others, k):
            seq = (src, *inner, dst)
            if all(pair in edges for pair in zip(seq, seq[1:])):
                found.add(seq)
    return found


class TestStructureEnumeration:
    def test_matches_brute_force(self, rng):
        """Random graphs of 1-6 nodes with self-loops, isolated nodes,
        repeated edges and src == dst."""
        for _ in range(300):
            n = int(rng.integers(1, 7))
            names = [f"n{i}" for i in range(n)]
            g = FlowGraph()
            for name in names:
                g.add_node(name)
            density = rng.uniform(0.1, 0.6)
            for u, v in itertools.product(names, repeat=2):
                if rng.random() < density:
                    g.add_edge(u, v, constant(1.0))
                    if rng.random() < 0.1:
                        g.add_edge(u, v, constant(1.0))  # merged into one edge
            cycles = [tuple(c) for c in g.simple_cycles()]
            assert len(cycles) == len(set(cycles))
            assert set(cycles) == brute_cycles(g)
            src, dst = (names[i] for i in rng.choice(n, size=2, replace=True))
            paths = [tuple(p) for p in g.simple_paths(src, dst)]
            assert len(paths) == len(set(paths))
            assert set(paths) == brute_paths(g, src, dst)


class TestSolverEquivalence:
    def test_random_graphs(self, rng):
        for _ in range(300):
            g, src, dst = random_graph(rng)
            m = mason_gain(g, src, dst, 0.0).value
            s = solve_gain(g, src, dst, 0.0)
            scale = max(abs(m), abs(s), 1e-3)
            assert abs(m - s) / scale < 1e-10

    def test_determinant_matches_numpy(self, rng):
        for _ in range(60):
            g, src, dst = random_graph(rng, max_nodes=8)
            det_mason = mason_gain(g, src, dst, 0.0).determinant
            names = g.nodes
            idx = {n: i for i, n in enumerate(names)}
            a = np.zeros((len(names), len(names)), dtype=complex)
            for (u, v) in g.edges:
                a[idx[v], idx[u]] += g._edge_gain(u, v, 0.0)
            det_np = np.linalg.det(np.eye(len(names)) - a)
            assert abs(det_mason - det_np) / abs(det_np) < 1e-10

    def test_linear_in_off_loop_edge(self):
        g = FlowGraph()
        g.add_edge("s", "m", constant(1.0))
        g.add_edge("m", "m", constant(0.3))
        base = FlowGraph()
        base.add_edge("s", "m", constant(1.0))
        base.add_edge("m", "m", constant(0.3))
        for w_edge in (0.5, 1.0, 2.0, 4.0):
            g2 = FlowGraph()
            g2.add_edge("s", "m", constant(1.0))
            g2.add_edge("m", "m", constant(0.3))
            g2.add_edge("m", "d", constant(w_edge))
            val = mason_gain(g2, "s", "d", 0.0).value
            assert val == pytest.approx(w_edge / 0.7, rel=1e-12)


class TestAntiStokesGraph:
    def test_node_edge_count(self):
        """The graphs hold the external ports only; the Stokes graph adds
        the conjugate sector."""
        for builder, configuration, nodes, edges in (
            (antistokes_graph_from_rates, Configuration.ANTI_STOKES, 7, 10),
            (stokes_graph_from_rates, Configuration.STOKES, 14, 20),
        ):
            g = builder(make_rates_op(configuration))
            assert len(g.nodes) == nodes
            assert len(g.edges) == edges

    def test_decoupled_limit(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.0)
        g = antistokes_graph_from_rates(op)
        for w in (0.0, TWO_PI * 4e6):
            chi_m = 1.0 / (-1j * w + 0.5 * op.kappa_m)
            expected = -1.0 + op.kappa_ex_m * chi_m
            assert mason_gain(g, "c_in", "c_out", w).value == pytest.approx(expected, rel=1e-12)
        assert mason_gain(g, "c_in", "a_out", 0.0).value == 0.0

    def test_single_loop_and_determinant(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.3)
        g = antistokes_graph_from_rates(op)
        res = mason_gain(g, "c_in", "a_out", 0.0)
        assert res.n_loops == 1
        # Delta(0) = 1 + |g|^2 chi_+(0) chi_m(0) = 1 + C
        assert res.determinant == pytest.approx(1.0 + op.cooperativity, rel=1e-12)

    def test_cross_transfer_closed_form(self):
        op = make_rates_op(Configuration.ANTI_STOKES, cooperativity=0.1)
        g = antistokes_graph_from_rates(op)
        for w in np.linspace(-3, 3, 7) * op.kappa_m:
            chi_m = 1.0 / (-1j * w + 0.5 * op.kappa_m)
            chi_p = 1.0 / (-1j * w + 0.5 * op.kappa_plus)
            expected = (
                -1j
                * math.sqrt(op.kappa_ex_plus * op.kappa_ex_m)
                * op.g_plus
                * chi_p
                * chi_m
                / (1.0 + abs(op.g_plus) ** 2 * chi_p * chi_m)
            )
            got = mason_gain(g, "c_in", "a_out", w).value
            assert got == pytest.approx(expected, rel=1e-12)


class TestStokesGraph:
    def test_decoupled_limit(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.0)
        g = stokes_graph_from_rates(op)
        assert mason_gain(g, "c_in_dag", "a_out", 0.0).value == 0.0
        assert mason_gain(g, "a_in_dag", "c_out", 0.0).value == 0.0

    def test_threshold_determinant_zero(self):
        # C_- = 1 makes the determinant vanish at band center
        op = make_rates_op(Configuration.STOKES, cooperativity=1.0)
        g = stokes_graph_from_rates(op)
        with pytest.raises(InstabilityError):
            mason_gain(g, "c_in", "c_out", 0.0)

    def test_cross_transfer_matches_solver_and_closed_form(self):
        op = make_rates_op(Configuration.STOKES, cooperativity=0.25)
        g = stokes_graph_from_rates(op)
        for w in np.linspace(-2, 2, 5) * op.kappa_m:
            cf = transfer_from_rates(op, "microwave", "optical", w)
            m = mason_gain(g, "c_in_dag", "a_out", w).value
            s = solve_gain(g, "c_in_dag", "a_out", w)
            assert m == pytest.approx(cf, rel=1e-12)
            assert s == pytest.approx(cf, rel=1e-12)

    def test_sector_loop_gains_match(self):
        # both conjugate sectors carry the same determinant
        op = make_rates_op(Configuration.STOKES, cooperativity=0.4)
        g = stokes_graph_from_rates(op)
        w = 0.7 * op.kappa_m
        det1 = mason_gain(g, "c_in_dag", "a_out", w).determinant
        det2 = mason_gain(g, "c_in", "c_out", w).determinant
        assert det1 == pytest.approx(det2, rel=1e-12)


# (from_port, to_port) of `transfer_from_rates` -> (source, sink) nodes
ANTI_STOKES_PORTS = {
    ("microwave", "optical"): ("c_in", "a_out"),
    ("optical", "microwave"): ("a_in", "c_out"),
    ("microwave", "microwave"): ("c_in", "c_out"),
    ("optical", "optical"): ("a_in", "a_out"),
}
# the optical-annihilation sector only: the microwave sector's entries equal
# the closed forms evaluated at -d
STOKES_PORTS = {
    ("microwave", "optical"): ("c_in_dag", "a_out"),
    ("optical", "optical"): ("a_in", "a_out"),
}


class TestDetunedGraphs:
    """The graphs read the sideband detuning d through the linear model and
    match the closed forms, Mason and solve alike, at d ~ N(0, kappa_o)."""

    @staticmethod
    def check(op, ports, x):
        graph = graph_from_rates(op)
        w = x * op.kappa_m
        for (fp, tp), (src, dst) in ports.items():
            cf = transfer_from_rates(op, fp, tp, w)
            for got in (mason_gain(graph, src, dst, w).value, solve_gain(graph, src, dst, w)):
                assert abs(got - cf) <= 1e-10 * abs(cf), (fp, tp)

    @given(op=detuned_ops(Configuration.ANTI_STOKES), x=st.floats(-4.0, 4.0))
    def test_antistokes_matches_closed_forms(self, op, x):
        self.check(op, ANTI_STOKES_PORTS, x)

    @given(op=detuned_ops(Configuration.STOKES), x=st.floats(-4.0, 4.0))
    def test_stokes_optical_sector_matches_closed_forms(self, op, x):
        self.check(op, STOKES_PORTS, x)
