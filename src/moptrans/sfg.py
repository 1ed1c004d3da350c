"""Signal-flow graphs and two independent transfer-function solvers.

A FlowGraph carries complex, frequency-dependent edge gains (callables of
the evaluation offset omega in rad/s).  Transfer functions come out of
either Mason's gain formula (exhaustive simple-path / simple-cycle
enumeration with non-touching-loop cofactors) or a direct linear solve of
x = A x + e_src; the two are mutual oracles.  Paths and cycles come from
one depth-first walk over the successor lists: each cycle is rooted at its
earliest node, so it is found once, and a self-loop is a cycle of one
node.  The physics graphs have at most 14 nodes and 2 loops.

`graph_from_rates` generates the physics graph of an operating point from
`hybridize.linear_model`, whose docstring is the one description of the
model: its frames, signs, anomalous ports and the terms it leaves out.
Every edge gain is evaluated at the common signal offset omega.  The
sideband detuning d sits on A's diagonal, so the active supermode's
susceptibility is chi(omega + d) and the spectator's chi(omega + d +-
splitting).  Conjugate-sector nodes (daggered operators, Stokes pumping
only) are separate graph nodes whose gains are the conjugates of the
model's, so there the detuning enters as chi(omega - d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InstabilityError
from .hybridize import OperatingPoint, linear_model

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

def graph_from_rates(op: OperatingPoint) -> FlowGraph:
    """Flow graph of `hybridize.linear_model(op)` over its two external
    ports: each mode i is a node with chi_i = 1/(-i omega - A_ii), each
    nonzero A_ij (j != i) or B_ik an edge into it of gain A_ij chi_i or
    B_ik chi_i, and each nonzero C_oi or D_ok an edge into output o.  A
    model with a conjugated mode (Stokes pumping) adds its conjugate
    sector, the conjugate of every matrix with `_dag` toggled on every
    name: 14 nodes and 20 edges in two mirror components, against 7 nodes
    and 10 edges under anti-Stokes pumping.
    """
    model = linear_model(op)
    names = (model.modes, model.inputs[:2], model.outputs[:2])  # the bus and the microwave port
    sectors = [(names, False)]
    if min(model.sigma) < 0:
        toggled = [tuple(n[:-4] if n.endswith("_dag") else n + "_dag" for n in group) for group in names]
        sectors.append((toggled, True))
    fg = FlowGraph()
    for (modes, inputs, outputs), conj in sectors:
        for name in (*inputs, *modes, *outputs):
            fg.add_node(name)
        sources = modes + inputs  # zip below stops at the external inputs
        for i, mode in enumerate(modes):
            pole = model.a[i][i].conjugate() if conj else model.a[i][i]
            for src, v in zip(sources, model.a[i] + model.b[i]):
                if v and src != mode:
                    fg.add_edge(src, mode, lambda w, g=v.conjugate() if conj else v, p=pole: g / (-1j * w - p))
        for o, dst in enumerate(outputs):
            for src, v in zip(sources, model.c[o] + model.d[o]):
                if v:
                    fg.add_edge(src, dst, lambda w, g=v.conjugate() if conj else v: g)
    return fg


# one generator serves both pump configurations; these are its established names
antistokes_graph_from_rates = stokes_graph_from_rates = graph_from_rates
