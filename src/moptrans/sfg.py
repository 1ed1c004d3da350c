"""Signal-flow graphs and two independent transfer-function solvers.

A FlowGraph carries complex, frequency-dependent edge gains (callables of
the evaluation offset omega in rad/s).  Transfer functions come out of
either Mason's gain formula (exhaustive simple-path / simple-cycle
enumeration with non-touching-loop cofactors) or a direct linear solve of
x = A x + e_src; the two are mutual oracles.  Paths and cycles come from
one depth-first walk over the successor lists: each cycle is rooted at its
earliest node, so it is found once, and a self-loop is a cycle of one
node.  The physics graphs have at most 14 nodes and 2 loops.

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
    most one edge per ordered node pair.  Nodes keep their insertion order,
    and each simple cycle is listed from its earliest node.  Structure
    queries (paths, cycles) are cached; the cache is invalidated by any
    mutation.
    """

    def __init__(self):
        self._succ: dict[str, list[str]] = {}
        self._edges: dict[tuple[str, str], GainFn] = {}
        self._cycle_cache = None
        self._path_cache: dict[tuple[str, str], list[list[str]]] = {}

    # -- construction -------------------------------------------------

    def add_node(self, name: str) -> None:
        self._succ.setdefault(name, [])

    def add_edge(self, src: str, dst: str, gain: GainFn) -> None:
        self.add_node(src)
        self.add_node(dst)
        key = (src, dst)
        if key in self._edges:
            old = self._edges[key]
            self._edges[key] = lambda w, f=old, g=gain: f(w) + g(w)
        else:
            self._edges[key] = gain
            self._succ[src].append(dst)
        self._cycle_cache = None
        self._path_cache.clear()

    # -- structure ----------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._succ)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._edges)

    def _walks(self, start: str, stop: str, inner) -> list[list[str]]:
        """Every path start -> ... -> stop along edges, with distinct inner
        nodes drawn from `inner` and never equal to start or stop."""
        found = []
        path = [start]

        def visit(v):
            for w in self._succ[v]:
                if w == stop:
                    found.append(path + [w])
                elif w in inner and w not in path:
                    path.append(w)
                    visit(w)
                    path.pop()

        visit(start)
        return found

    def simple_cycles(self) -> list[list[str]]:
        """Elementary cycles, each listed once from its earliest node: the
        walks from a root back to itself through later nodes only (the
        rooted enumeration of Johnson, SIAM J. Comput. 4, 77 (1975))."""
        if self._cycle_cache is None:
            order = self.nodes
            self._cycle_cache = [
                walk[:-1]
                for i, root in enumerate(order)
                for walk in self._walks(root, root, set(order[i + 1:]))
            ]
        return self._cycle_cache

    def simple_paths(self, src: str, dst: str) -> list[list[str]]:
        """Forward paths src -> dst with no repeated node; [[src]] for
        src == dst.  An unknown node raises KeyError."""
        for name in (src, dst):
            if name not in self._succ:
                raise KeyError(name)
        key = (src, dst)
        if key not in self._path_cache:
            if src == dst:
                self._path_cache[key] = [[src]]
            else:
                self._path_cache[key] = self._walks(src, dst, self._succ)
        return self._path_cache[key]

    # -- evaluation helpers --------------------------------------------

    def _edge_gain(self, src: str, dst: str, omega: float) -> complex:
        return complex(self._edges[(src, dst)](omega))

    def _path_gain(self, path: list[str], omega: float) -> complex:
        g = 1.0 + 0.0j
        for a, b in zip(path, path[1:]):
            g *= self._edge_gain(a, b, omega)
        return g

    def _cycle_gain(self, cycle: list[str], omega: float) -> complex:
        closed = cycle + [cycle[0]]
        return self._path_gain(closed, omega)


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
    frequency and raises InstabilityError; an unknown `src` or `dst`
    raises KeyError, as in solve_gain.
    """
    paths = graph.simple_paths(src, dst)
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
    for name in ("a_in", "c_in", "a_minus", "a_plus", "b", "a_out", "c_out"):
        fg.add_node(name)

    fg.add_edge("c_in", "b", lambda w: sq_ex_m * chi_m(w))
    fg.add_edge("b", "a_plus", lambda w: 1j * g * chi_p(w))
    fg.add_edge("a_plus", "b", lambda w: 1j * g.conjugate() * chi_m(w))
    fg.add_edge("a_in", "a_plus", lambda w: sq_ex_p * chi_p(w))
    fg.add_edge(
        "a_in", "a_minus",
        lambda w: sq_ex_mn / (-1j * (w + split) + 0.5 * op.kappa_minus),
    )
    fg.add_edge("a_plus", "a_out", lambda w: -sq_ex_p)
    fg.add_edge("a_minus", "a_out", lambda w: -sq_ex_mn)
    fg.add_edge("b", "c_out", lambda w: sq_ex_m)
    fg.add_edge("a_in", "a_out", lambda w: 1.0)
    fg.add_edge("c_in", "c_out", lambda w: -1.0)
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
    for name in (
        "a_in", "c_in_dag", "c_in", "a_in_dag",
        "a_minus", "a_plus", "b_dag", "b", "a_minus_dag", "a_plus_dag",
        "a_out", "c_out_dag", "c_out", "a_out_dag",
    ):
        fg.add_node(name)

    # optical-annihilation sector: carries S_aa and the up-conversion
    # anomalous coefficient S_{a_out <- c_in^dag}
    fg.add_edge("c_in_dag", "b_dag", lambda w: sq_ex_m * chi_m(w))
    fg.add_edge("b_dag", "a_minus", lambda w: 1j * g * chi_mn(w))
    fg.add_edge("a_minus", "b_dag", lambda w: -1j * g.conjugate() * chi_m(w))
    fg.add_edge("a_in", "a_minus", lambda w: sq_ex_mn * chi_mn(w))
    fg.add_edge(
        "a_in", "a_plus",
        lambda w: sq_ex_p / (-1j * (w - split) + 0.5 * op.kappa_plus),
    )
    fg.add_edge("a_minus", "a_out", lambda w: -sq_ex_mn)
    fg.add_edge("a_plus", "a_out", lambda w: -sq_ex_p)
    fg.add_edge("b_dag", "c_out_dag", lambda w: sq_ex_m)
    fg.add_edge("a_in", "a_out", lambda w: 1.0)
    fg.add_edge("c_in_dag", "c_out_dag", lambda w: -1.0)

    # microwave sector: carries S_cc and the down-conversion anomalous
    # coefficient S_{c_out <- a_in^dag}
    fg.add_edge("c_in", "b", lambda w: sq_ex_m * chi_m(w))
    fg.add_edge("b", "a_minus_dag", lambda w: -1j * g.conjugate() * chi_mn(w))
    fg.add_edge("a_minus_dag", "b", lambda w: 1j * g * chi_m(w))
    fg.add_edge("a_in_dag", "a_minus_dag", lambda w: sq_ex_mn * chi_mn(w))
    fg.add_edge(
        "a_in_dag", "a_plus_dag",
        lambda w: sq_ex_p / (-1j * (w + split) + 0.5 * op.kappa_plus),
    )
    fg.add_edge("a_minus_dag", "a_out_dag", lambda w: -sq_ex_mn)
    fg.add_edge("a_plus_dag", "a_out_dag", lambda w: -sq_ex_p)
    fg.add_edge("b", "c_out", lambda w: sq_ex_m)
    fg.add_edge("a_in_dag", "a_out_dag", lambda w: 1.0)
    fg.add_edge("c_in", "c_out", lambda w: -1.0)
    return fg

