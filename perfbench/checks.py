"""Independent checks for the benchmark's jobs.

Nothing here imports cobforge.  Each expected value is recomputed along a
route of its own: closed forms over ``math.comb``, a local re-implementation
of the documented vertex/face truncation policy on vertex-facet sets, and the
closed-form h-vector increment of a face truncation (Buchstaber & Panov,
*Toric Topology*, 2015: truncating a face F of codimension c adds
h_F(t)·(t + … + t^(c-1)) to the h-vector).  Every check returns the list of
problems it found; an empty list means the output is right.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

# The frozen L tables the paper's reproduction must print, and the shape of
# its report with the oracle sweep pinned to n <= 16.
FROZEN_L_TABLES = {
    4: (25,),
    6: (70, -189, 238),
    8: (135, -513, 1173, -1881, 1755),
}
REPRODUCE_CHECK_COUNT = 22
REPRODUCE_MAX_N = 16


def s_dkn(n: int, k: int) -> int:
    """(n-k-1)(2^(k+1)-1) + sum_i (-1)^i (2^i + (-1)^n 2^(k-i)) C(n-1, i)."""
    sign_n = 1 if n % 2 == 0 else -1
    return (n - k - 1) * (2 ** (k + 1) - 1) + sum(
        (-1) ** i * (2**i + sign_n * 2 ** (k - i)) * math.comb(n - 1, i)
        for i in range(k + 1)
    )


def s_kn(n: int, k: int) -> int:
    """Milnor-number change of one two-stage modification of type k."""
    return -s_dkn(n, k) - (n + (1 if n % 2 == 0 else -1))


def is_prime_power(m: int) -> bool:
    p = next(f for f in range(2, m + 1) if m % f == 0)
    while m % p == 0:
        m //= p
    return m == 1


def check_reproduce(rc: int, report: dict) -> list[str]:
    """Exit 0, 22 of 22 checks passed, frozen L tables, oracle sweep to n=16."""
    problems = []
    if rc != 0:
        problems.append(f"reproduce exited {rc}")
    checks = report.get("checks", [])
    passed = sum(1 for c in checks if c.get("passed") is True)
    if len(checks) != REPRODUCE_CHECK_COUNT or passed != REPRODUCE_CHECK_COUNT:
        problems.append(f"{passed}/{len(checks)} checks passed, expected 22/22")
    outputs = report.get("outputs", {})
    for n, row in FROZEN_L_TABLES.items():
        if outputs.get(f"L_table_n{n}") != [str(v) for v in row]:
            problems.append(f"L table n={n} differs from the frozen values")
    if outputs.get("oracle_sweep_top") != REPRODUCE_MAX_N:
        problems.append(f"oracle_sweep_top is {outputs.get('oracle_sweep_top')!r}")
    return problems


def check_plan(n: int, a: int, base_milnor: int, counts: Sequence[int], predicted: int) -> list[str]:
    """A generator plan: predicted value 1, reached by the plan's own bookkeeping.

    The sum is reassembled as base + sum counts[k]·(-s_dkn(n,k) - (n+1)) for
    even n, and the base Milnor number must be (n+1)·a for the twist a of
    the base bundle.
    """
    problems = []
    if predicted != 1:
        problems.append(f"predicted Milnor number {predicted}, expected 1")
    if base_milnor != (n + 1) * a:
        problems.append(f"base_milnor {base_milnor} != (n+1)*a = {(n + 1) * a}")
    if len(counts) != n - 1 or any(c < 0 for c in counts):
        problems.append("counts must be n-1 nonnegative integers")
    total = base_milnor + sum(c * (-s_dkn(n, k) - (n + 1)) for k, c in enumerate(counts))
    if total != predicted:
        problems.append(f"recomputed Milnor number {total} != predicted {predicted}")
    return problems


def check_generator(n: int, s: int, is_generator: bool) -> list[str]:
    """Milnor-Novikov: s = ±1 generates when n+1 is not a prime power."""
    if is_prime_power(n + 1):
        return [f"n+1 = {n + 1} is a prime power; the sweep expects none"]
    if not (is_generator and abs(s) == 1):
        return [f"generator criterion failed for s={s} (reported {is_generator})"]
    return []


# ---- polytopes -------------------------------------------------------------


def _polymul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def h_closed(n: int, counts: Sequence[int]) -> tuple[int, ...]:
    """h-vector of the base I×I×Δ^(n-2) after the plan, in closed form.

    (1+t)^2 (1+…+t^(n-2)) + sum_k counts[k]·[(t+…+t^(n-1)) + (1+…+t^k)(t+…+t^(n-k-1))]
    """
    h = _polymul(_polymul([1, 1], [1, 1]), [1] * (n - 1))
    for k, c in enumerate(counts):
        face = _polymul([1] * (k + 1), [0] + [1] * (n - k - 1))
        for i in range(1, n):
            h[i] += c * (1 + face[i])
    return tuple(h)


def reference_vertices(n: int, counts: Sequence[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Facet count and canonical vertex list after playing the plan.

    Follows the documented policy of ``apply_plan``: each modification of
    type k cuts the lexicographically first vertex, then the k-face of the
    fresh simplex facet spanned by its first k+1 vertices.  Only the new
    facet's vertices change, so each step edits a sorted list locally.
    """
    verts = sorted(
        (a, b, *(4 + f for f in range(n - 1) if f != skip))
        for a in (0, 1)
        for b in (2, 3)
        for skip in range(n - 1)
    )
    g = n + 3
    for k, count in enumerate(counts):
        for _ in range(count):
            v = set(verts.pop(0))
            fresh = sorted(tuple(sorted(v - {f} | {g})) for f in v)
            d = set(fresh[0]).intersection(*fresh[1 : k + 1])
            for w in fresh:
                if not d <= set(w):
                    bisect.insort(verts, w)
            for w in fresh[: k + 1]:
                rest = set(w) - d
                for drop in d:
                    bisect.insort(verts, tuple(sorted(rest | {g + 1} | (d - {drop}))))
            g += 2
    return g, verts


def relabel(vertices: Iterable[Iterable[int]], perm: Sequence[int]) -> list[list[int]]:
    """Canonical vertex list after renaming facet f to perm[f]."""
    return sorted(sorted(perm[f] for f in v) for v in vertices)


def check_apply(rc: int, report: dict, n: int, counts: Sequence[int], h: Sequence[int]) -> list[str]:
    """apply-plan: exit 0, dimension n, 2 new facets per modification, h(1) vertices."""
    problems = []
    if rc != 0:
        problems.append(f"apply-plan exited {rc}")
    out = report.get("outputs", {})
    expected = {"dim": n, "facets": n + 3 + 2 * sum(counts), "vertex_count": sum(h)}
    for key, value in expected.items():
        if out.get(key) != value:
            problems.append(f"apply-plan {key} is {out.get(key)!r}, expected {value}")
    return problems


def check_loaded(dim: int, vertex_count: int, n: int, h: Sequence[int]) -> list[str]:
    if (dim, vertex_count) != (n, sum(h)):
        return [f"loaded polytope has dim {dim} and {vertex_count} vertices, expected {n} and {sum(h)}"]
    return []


def check_hvec(rc: int, report: dict, h: Sequence[int]) -> list[str]:
    """hvec: exit 0 and the h-vector equals the closed form, f_0 = h(1)."""
    problems = []
    if rc != 0:
        problems.append(f"hvec exited {rc}")
    out = report.get("outputs", {})
    if out.get("h_vector") != list(h):
        problems.append(f"h-vector {out.get('h_vector')} != closed form {list(h)}")
    if (out.get("f_vector") or [None])[0] != sum(h):
        problems.append("f_0 differs from h(1)")
    return problems


def check_iso(rc: int, report: dict, first: Sequence[Sequence[int]], second: Sequence[Sequence[int]]) -> list[str]:
    """iso: exit 0, and the reported bijection carries first's vertices onto second's."""
    problems = []
    if rc != 0:
        problems.append(f"iso exited {rc}")
    mapping = report.get("outputs", {}).get("facet_bijection")
    m = 1 + max(max(v) for v in second)
    if not isinstance(mapping, list) or sorted(mapping) != list(range(m)):
        return problems + [f"no facet bijection reported ({str(mapping)[:40]})"]
    if relabel(first, mapping) != sorted(sorted(v) for v in second):
        problems.append("reported bijection does not carry vertices onto the relabelling")
    return problems
