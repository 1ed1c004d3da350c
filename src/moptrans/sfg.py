"""Signal-flow graphs and two independent transfer-function solvers.

A FlowGraph carries complex, frequency-dependent edge gains (callables of
the evaluation offset omega in rad/s).  Transfer functions come out of
either Mason's gain formula (exhaustive simple-path / simple-cycle
enumeration with non-touching-loop cofactors) or a direct linear solve of
x = A x + e_src; the two are mutual oracles.

Builders translate the linearized transducer equations of motion into
graphs whose Mason gains reproduce the closed-form S parameters.  All edge
gains are evaluated at the common signal offset omega; conjugate-sector
nodes (daggered operators) are separate graph nodes whose *couplings* carry
the conjugation while the susceptibilities stay chi[omega] = 1/(-i omega +
kappa/2), as the equations of motion dictate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import networkx as nx
import numpy as np

from .errors import InstabilityError
from .hybridize import OperatingPoint

GainFn = Callable[[float], complex]

_SINGULAR_TOL = 1e-14


@dataclass(frozen=True)
class GainResult:
    """Mason evaluation record: the gain, how many forward paths and simple
    loops entered it, and the graph determinant at this frequency."""

    value: complex
    n_paths: int
    n_loops: int
    determinant: complex


class FlowGraph:
    """Directed graph with complex frequency-dependent edge gains.

    Parallel edges are merged by summation at construction, so there is at
    most one edge per ordered node pair.  Structure queries (paths, cycles)
    are cached; the cache is invalidated by any mutation.
    """

    def __init__(self):
        self._roles: dict[str, str] = {}
        self._edges: dict[tuple[str, str], tuple[GainFn, str]] = {}
        self._cycle_cache = None
        self._path_cache: dict[tuple[str, str], list[list[str]]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, name: str, role: str = "internal") -> None:
        if role not in ("source", "sink", "internal"):
            raise ValueError(f"unknown node role {role!r}")
        if name in self._roles and self._roles[name] != role:
            raise ValueError(f"node {name!r} already present with role {self._roles[name]!r}")
        self._roles[name] = role

    def add_edge(self, src: str, dst: str, gain: GainFn, label: str = "") -> None:
        for n in (src, dst):
            if n not in self._roles:
                self.add_node(n)
        key = (src, dst)
        if key in self._edges:
            old_fn, old_label = self._edges[key]
            merged_label = f"{old_label} + {label}" if label else old_label
            self._edges[key] = (lambda w, f=old_fn, g=gain: f(w) + g(w), merged_label)
        else:
            self._edges[key] = (gain, label)
        self._cycle_cache = None
        self._path_cache.clear()

    # -- structure ----------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._roles)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._edges)

    def role(self, name: str) -> str:
        return self._roles[name]

    def _nx(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(self._roles)
        g.add_edges_from(self._edges)
        return g

    def simple_cycles(self) -> list[list[str]]:
        if self._cycle_cache is None:
            self._cycle_cache = [list(c) for c in nx.simple_cycles(self._nx())]
        return self._cycle_cache

    def simple_paths(self, src: str, dst: str) -> list[list[str]]:
        key = (src, dst)
        if key not in self._path_cache:
            if src == dst:
                self._path_cache[key] = [[src]]
            else:
                try:
                    paths = [list(p) for p in nx.all_simple_paths(self._nx(), src, dst)]
                except (nx.NodeNotFound, nx.NetworkXNoPath):
                    paths = []
                self._path_cache[key] = paths
        return self._path_cache[key]

    # -- evaluation helpers --------------------------------------------

    def _edge_gain(self, src: str, dst: str, omega: float) -> complex:
        return complex(self._edges[(src, dst)][0](omega))

    def _path_gain(self, path: list[str], omega: float) -> complex:
        g = 1.0 + 0.0j
        for a, b in zip(path, path[1:]):
            g *= self._edge_gain(a, b, omega)
        return g

    def _cycle_gain(self, cycle: list[str], omega: float) -> complex:
        closed = cycle + [cycle[0]]
        return self._path_gain(closed, omega)

    def to_dot(self) -> str:
        """Debug dump in DOT format with symbolic gain labels."""
        lines = ["digraph flowgraph {"]
        for name, role in self._roles.items():
            shape = {"source": "box", "sink": "box", "internal": "ellipse"}[role]
            lines.append(f'  "{name}" [shape={shape}];')
        for (src, dst), (_, label) in self._edges.items():
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _delta(loop_masks: list[int], loop_gains: list[complex], forbidden: int) -> complex:
    """Graph determinant 1 - sum L_i + sum(non-touching pairs) - ... over
    loops whose node sets avoid `forbidden` (a bitmask).  Computed as the
    signed sum over all pairwise non-touching loop subsets."""

    n = len(loop_masks)

    def rec(start: int, used: int) -> complex:
        total = 1.0 + 0.0j
        for i in range(start, n):
            if loop_masks[i] & used:
                continue
            total += (-loop_gains[i]) * rec(i + 1, used | loop_masks[i])
        return total

    return rec(0, forbidden)


def mason_gain(graph: FlowGraph, src: str, dst: str, omega: float) -> GainResult:
    """Transfer gain from `src` to `dst` at evaluation frequency `omega`
    via Mason's rule: sum_k P_k Delta_k / Delta with exhaustively
    enumerated simple forward paths and simple loops.

    For src == dst the self-gain Delta_(G minus src) / Delta is returned
    (unity plus all return-path contributions).  A determinant magnitude
    below 1e-14 signals a singular (resonant/unstable) graph at this
    frequency and raises InstabilityError.
    """
    bit = {name: 1 << i for i, name in enumerate(graph.nodes)}

    cycles = graph.simple_cycles()
    loop_masks = []
    loop_gains = []
    for c in cycles:
        m = 0
        for node in c:
            m |= bit[node]
        loop_masks.append(m)
        loop_gains.append(graph._cycle_gain(c, omega))

    det = _delta(loop_masks, loop_gains, 0)
    if abs(det) < _SINGULAR_TOL:
        raise InstabilityError(
            f"singular flow graph at omega={omega!r}: |Delta|={abs(det)!r}"
        )

    paths = graph.simple_paths(src, dst)
    total = 0.0 + 0.0j
    for p in paths:
        mask = 0
        for node in p:
            mask |= bit[node]
        cofactor = _delta(loop_masks, loop_gains, mask)
        total += graph._path_gain(p, omega) * cofactor

    return GainResult(
        value=total / det,
        n_paths=len(paths),
        n_loops=len(cycles),
        determinant=det,
    )


def solve_gain(graph: FlowGraph, src: str, dst: str, omega: float) -> complex:
    """Oracle solver: every node accumulates its incoming edges plus a unit
    injection at `src`; solve (I - A) x = e_src and read x_dst.  Direct
    src->dst edges are included automatically."""
    names = graph.nodes
    idx = {n: i for i, n in enumerate(names)}
    n = len(names)
    a = np.zeros((n, n), dtype=complex)
    for (u, v) in graph.edges:
        a[idx[v], idx[u]] += graph._edge_gain(u, v, omega)
    b = np.zeros(n, dtype=complex)
    b[idx[src]] = 1.0
    system = np.eye(n, dtype=complex) - a
    det = np.linalg.det(system)
    if abs(det) < _SINGULAR_TOL:
        raise InstabilityError(
            f"singular flow graph at omega={omega!r}: |det(I-A)|={abs(det)!r}"
        )
    x = np.linalg.solve(system, b)
    return complex(x[idx[dst]])


# ---------------------------------------------------------------------------
# physics graphs
# ---------------------------------------------------------------------------

def _chi(kappa: float) -> Callable[[float], complex]:
    return lambda w: 1.0 / (-1j * w + 0.5 * kappa)


def antistokes_graph_from_rates(op: OperatingPoint) -> FlowGraph:
    """Beam-splitter conversion graph (pump on the lower supermode).

    Nodes: a_in, c_in (sources), a_minus, a_plus, b (internal), a_out,
    c_out (sinks); the single loop b <-> a_plus carries gain
    -|g_+|^2 chi_+ chi_m.  Evaluation offset omega is common to the
    microwave signal (from omega_m) and the optical signal (from
    omega_L + omega_m); the far-detuned spectator a_minus sees the signal
    at chi_-[omega + splitting].  Models zero sideband detuning:
    `op.sideband_detuning` is not read.
    """
    g = op.g_plus
    chi_m = _chi(op.kappa_m)
    chi_p = _chi(op.kappa_plus)
    sq_ex_m = math.sqrt(op.kappa_ex_m)
    sq_ex_p = math.sqrt(op.kappa_ex_plus)
    sq_ex_mn = math.sqrt(op.kappa_ex_minus)
    split = op.splitting

    fg = FlowGraph()
    for name in ("a_in", "c_in"):
        fg.add_node(name, "source")
    for name in ("a_minus", "a_plus", "b"):
        fg.add_node(name, "internal")
    for name in ("a_out", "c_out"):
        fg.add_node(name, "sink")

    fg.add_edge("c_in", "b", lambda w: sq_ex_m * chi_m(w), "sqrt(kex_m) chi_m")
    fg.add_edge("b", "a_plus", lambda w: 1j * g * chi_p(w), "i g_+ chi_+")
    fg.add_edge("a_plus", "b", lambda w: 1j * g.conjugate() * chi_m(w), "i g_+* chi_m")
    fg.add_edge("a_in", "a_plus", lambda w: sq_ex_p * chi_p(w), "sqrt(kex_+) chi_+")
    fg.add_edge(
        "a_in", "a_minus",
        lambda w: sq_ex_mn / (-1j * (w + split) + 0.5 * op.kappa_minus),
        "sqrt(kex_-) chi_-[w+splitting]",
    )
    fg.add_edge("a_plus", "a_out", lambda w: -sq_ex_p, "-sqrt(kex_+)")
    fg.add_edge("a_minus", "a_out", lambda w: -sq_ex_mn, "-sqrt(kex_-)")
    fg.add_edge("b", "c_out", lambda w: sq_ex_m, "sqrt(kex_m)")
    fg.add_edge("a_in", "a_out", lambda w: 1.0, "1")
    fg.add_edge("c_in", "c_out", lambda w: -1.0, "-1")
    return fg


def stokes_graph_from_rates(op: OperatingPoint) -> FlowGraph:
    """Two-mode-squeezing conversion graph (pump on the upper supermode).

    Conjugated operators are separate nodes, giving two mirror components:
    the optical-annihilation sector {a_in, c_in_dag, a_minus, b_dag, a_out,
    c_out_dag} with loop |g_-|^2 chi_- chi_m, and the microwave sector
    {c_in, a_in_dag, b, a_minus_dag, c_out, a_out_dag} with the same loop
    gain; both determinants are 1 - |g_-|^2 chi_-[w] chi_m[w].  Models zero
    sideband detuning: `op.sideband_detuning` is not read.
    """
    g = op.g_minus
    chi_m = _chi(op.kappa_m)
    chi_mn = _chi(op.kappa_minus)
    sq_ex_m = math.sqrt(op.kappa_ex_m)
    sq_ex_p = math.sqrt(op.kappa_ex_plus)
    sq_ex_mn = math.sqrt(op.kappa_ex_minus)
    split = op.splitting

    fg = FlowGraph()
    for name in ("a_in", "c_in_dag", "c_in", "a_in_dag"):
        fg.add_node(name, "source")
    for name in ("a_minus", "a_plus", "b_dag", "b", "a_minus_dag", "a_plus_dag"):
        fg.add_node(name, "internal")
    for name in ("a_out", "c_out_dag", "c_out", "a_out_dag"):
        fg.add_node(name, "sink")

    # optical-annihilation sector: carries S_aa and the up-conversion
    # anomalous coefficient S_{a_out <- c_in^dag}
    fg.add_edge("c_in_dag", "b_dag", lambda w: sq_ex_m * chi_m(w), "sqrt(kex_m) chi_m")
    fg.add_edge("b_dag", "a_minus", lambda w: 1j * g * chi_mn(w), "i g_- chi_-")
    fg.add_edge("a_minus", "b_dag", lambda w: -1j * g.conjugate() * chi_m(w), "-i g_-* chi_m")
    fg.add_edge("a_in", "a_minus", lambda w: sq_ex_mn * chi_mn(w), "sqrt(kex_-) chi_-")
    fg.add_edge(
        "a_in", "a_plus",
        lambda w: sq_ex_p / (-1j * (w - split) + 0.5 * op.kappa_plus),
        "sqrt(kex_+) chi_+[w-splitting]",
    )
    fg.add_edge("a_minus", "a_out", lambda w: -sq_ex_mn, "-sqrt(kex_-)")
    fg.add_edge("a_plus", "a_out", lambda w: -sq_ex_p, "-sqrt(kex_+)")
    fg.add_edge("b_dag", "c_out_dag", lambda w: sq_ex_m, "sqrt(kex_m)")
    fg.add_edge("a_in", "a_out", lambda w: 1.0, "1")
    fg.add_edge("c_in_dag", "c_out_dag", lambda w: -1.0, "-1")

    # microwave sector: carries S_cc and the down-conversion anomalous
    # coefficient S_{c_out <- a_in^dag}
    fg.add_edge("c_in", "b", lambda w: sq_ex_m * chi_m(w), "sqrt(kex_m) chi_m")
    fg.add_edge("b", "a_minus_dag", lambda w: -1j * g.conjugate() * chi_mn(w), "-i g_-* chi_-")
    fg.add_edge("a_minus_dag", "b", lambda w: 1j * g * chi_m(w), "i g_- chi_m")
    fg.add_edge("a_in_dag", "a_minus_dag", lambda w: sq_ex_mn * chi_mn(w), "sqrt(kex_-) chi_-")
    fg.add_edge(
        "a_in_dag", "a_plus_dag",
        lambda w: sq_ex_p / (-1j * (w + split) + 0.5 * op.kappa_plus),
        "sqrt(kex_+) chi_+[w+splitting]",
    )
    fg.add_edge("a_minus_dag", "a_out_dag", lambda w: -sq_ex_mn, "-sqrt(kex_-)")
    fg.add_edge("a_plus_dag", "a_out_dag", lambda w: -sq_ex_p, "-sqrt(kex_+)")
    fg.add_edge("b", "c_out", lambda w: sq_ex_m, "sqrt(kex_m)")
    fg.add_edge("a_in_dag", "a_out_dag", lambda w: 1.0, "1")
    fg.add_edge("c_in", "c_out", lambda w: -1.0, "-1")
    return fg

