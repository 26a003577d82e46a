"""Nonnegative-coefficient representations over integer bases with gcd 1.

For an all-positive basis representability is decided exactly by the
Apery-set method: a shortest-path computation over residues modulo the
smallest basis element.  For a mixed-sign basis (first element positive,
gcd of absolute values 1) every integer is representable; the solver first
finds nonnegative coefficients over the absolute values, lifting the target
by the smallest multiple of a negative basis element that makes it
representable, and then trades coefficients against the first element to fix
the signs.

Cost: with m the smallest nonzero |entry| and b the number of entries, the
Apery shortest paths are a Dijkstra over m residues, O(m*b*log(m*b)), and the
lift is a closed form over at most m residue classes, O(m), independent of
the size of the lift.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd

from .arith import _require_ints


@dataclass(frozen=True)
class Representation:
    """target == sum(coefficients[i] * basis[i]) with all coefficients >= 0."""

    target: int
    basis: tuple[int, ...]
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.coefficients):
            raise ValueError("coefficient count must match basis length")
        if any(c < 0 for c in self.coefficients):
            raise ValueError("coefficients must be nonnegative")
        total = sum(c * t for c, t in zip(self.coefficients, self.basis))
        if total != self.target:
            raise ValueError(f"sum identity violated: {total} != {self.target}")


def _apery_distances(values: tuple[int, ...]) -> tuple[int, list, list]:
    """Shortest representable value in each residue class mod min(values).

    Returns (index of the modulus element, distances, predecessor links);
    ``pred[r]`` is (previous residue, basis index) along a shortest path.
    Residues unreachable from 0 keep distance None.
    """
    m = min(values)
    m_idx = values.index(m)
    dist: list[int | None] = [None] * m
    pred: list[tuple[int, int] | None] = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:
            continue
        for idx, t in enumerate(values):
            nr = (r + t) % m
            nd = d + t
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                pred[nr] = (r, idx)
                heapq.heappush(heap, (nd, nr))
    return m_idx, dist, pred


def represent(x: int, basis) -> Representation:
    """Write x as a nonnegative integer combination of the basis entries.

    The basis must have a positive first element and absolute values with
    gcd 1.  All-positive bases are decided exactly (unrepresentable targets
    raise).  With a negative entry present, x is always representable: if
    the absolute-value solver fails on x directly, the target is lifted to
    x + s*step, step = |first negative entry|, with the smallest s >= 1 for
    which the absolute-value solver succeeds, and the lift is charged to
    that entry's coefficient.  Absolute-value coefficients that land on
    negative entries are then made valid by trading k copies of the entry
    against k times its magnitude on the first basis element, with k
    minimal.  Deterministic for fixed input.

    The smallest s has a closed form.  With m the smallest nonzero |entry|
    and dist[r] the smallest representable value congruent to r mod m,
    x + s*step succeeds exactly when x + s*step >= dist[(x + s*step) % m].
    The residue repeats with period P = m / gcd(step, m), so for each s0 in
    1..P the smallest valid s congruent to s0 mod P is
    s0 + P*max(0, ceil((dist[r] - x - s0*step) / (P*step))),
    r = (x + s0*step) % m, and s is their minimum.  Cost: a Dijkstra over m
    residues, then this O(m) lift, whatever the size of s.
    """
    vals = tuple(basis)
    _require_ints((x, *vals), "target and basis must be integers")
    if not vals:
        raise ValueError("basis must be nonempty")
    if vals[0] <= 0:
        raise ValueError("first basis entry must be positive")
    abs_vals = tuple(abs(t) for t in vals)
    if gcd(*abs_vals) != 1:
        raise ValueError("basis gcd must be 1")

    active = tuple(i for i, t in enumerate(vals) if t != 0)
    solve_vals = tuple(abs_vals[i] for i in active)
    m_pos, dist, pred = _apery_distances(solve_vals)
    m = solve_vals[m_pos]

    def abs_coeffs_for(y: int) -> list[int] | None:
        if y < 0:
            return None
        r0 = y % m
        if dist[r0] is None or dist[r0] > y:
            return None
        coeffs = [0] * len(vals)
        r = r0
        while r != 0:
            prev, idx = pred[r]
            coeffs[active[idx]] += 1
            r = prev
        coeffs[active[m_pos]] += (y - dist[r0]) // m
        return coeffs

    coeffs = abs_coeffs_for(x)
    negatives = [i for i, t in enumerate(vals) if t < 0]
    if coeffs is None:
        if not negatives:
            raise ValueError(f"{x} is not representable over {vals}")
        j = negatives[0]
        step = abs_vals[j]
        # gcd 1 makes every residue reachable, so each dist entry is set.
        period = m // gcd(step, m)
        lifts = []
        for s0 in range(1, period + 1):
            y0 = x + s0 * step
            lifts.append(s0 + period * max(0, -((y0 - dist[y0 % m]) // (period * step))))
        shift = min(lifts)
        coeffs = abs_coeffs_for(x + shift * step)
        coeffs[j] -= shift

    for i in negatives:
        k = max(0, -(-coeffs[i] // vals[0]))
        coeffs[0] += k * abs_vals[i]
        coeffs[i] = k * vals[0] - coeffs[i]
    return Representation(target=x, basis=vals, coefficients=tuple(coeffs))
