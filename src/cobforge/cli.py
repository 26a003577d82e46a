"""Command-line surface: every pipeline stage with JSON reports.

Each subcommand handler does its work, prints human-readable lines, and
returns ``(inputs, outputs, checks)``: an echo of the inputs, the outputs,
and the named checks as an ordered ``{name: passed}`` mapping.  ``main`` is
the one place that turns this into a report ``{command, meta, inputs,
outputs, checks}``: it prints one ``[PASS]``/``[FAIL]`` line per check and a
``<command>: p/q checks passed`` summary, writes the report with ``--json
FILE``, and exits 0 exactly when every check passed.  ``command`` is the
subcommand path, e.g. ``"polytope cut-vertex"``, and ``meta`` records what
the run ran under: ``cobforge_version``, ``python`` (its version) and
``COBFORGE_MAX_N`` (the environment's raw value, ``null`` when unset).
Every check compares the result against a second route: ``milnor`` rebuilds
its value from oracle values of s_dkn, and ``polytope apply-plan`` checks the
vertex and facet counts of the played polytope against their closed form.
Milnor-type quantities are serialized as decimal strings so consumers
without big integers cannot lose precision.

Exit codes: 0 all checks passed, 1 domain error or failed check, 2 usage.
The console script (``entrypoint``) restores the default SIGPIPE action
where the platform has one, so a reader that closes stdout early ends the
process by SIGPIPE (return code -SIGPIPE), with nothing on stderr;
in-process ``main()`` callers keep Python's default.
The environment variable COBFORGE_MAX_N caps the oracle sweep size of the
``reproduce`` command: default 100 (0.3-0.55 s end to end with Python 3.11
on a shared 2-vCPU host), at least 2 and at most 150 (0.8-1.4 s); any other
value, or one that is not an integer, is refused with exit 1 before any work.
``milnor``'s oracle check makes at most three oracle calls, each O(k)
big-integer steps (the Segre class is a product of per-summand inverses), so
n <= 400 checks in under 5 s (about 0.1 s end to end at n = 400, any k);
``milnor`` refuses n > 400 with exit 1.  ``plan``
builds and verifies a plan for every 3 <= n <= 400 in under 1 s (n = 398,
399 and 400 are tested), and ``plan --n N`` followed by ``polytope
apply-plan`` plays every 3 <= N <= 100.  ``plan`` refuses n < 3 with
exit 1 (``construct_plan``'s ``ValueError``), and ``plan``, ``gcd-check``
and ``witness`` refuse n > 400 like ``milnor``, through one helper
(``_checked_n``).  ``polytope apply-plan`` refuses
plans past n = 100 or past 10,000 vertices (``polytope.check_plan_size``)
before it verifies the plan.  The types in a plan document are checked
once, by ``planner.ModificationPlan``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import signal
import sys
from typing import Sequence

from . import __version__, chern, milnor, planner, polytope
from .arith import prime_power_check

# Frozen expected values for the reproduce command; reproduction fails loudly
# if the computed tables drift from these.
EXPECTED_L_TABLES: dict[int, tuple[int, ...]] = {
    4: (25,),
    6: (70, -189, 238),
    8: (135, -513, 1173, -1881, 1755),
}

GCD_ONE_DIMENSIONS = (14, 20, 32)
PRIME_POWER_DIMENSIONS = (4, 6, 8, 10, 12, 16)
PLAN_DIMENSIONS = (14, 20)
EQUIV_SIMPLEX_RANGE = range(3, 7)
EQUIV_PRODUCT_RANGE = range(4, 7)

# The largest n ``milnor``, ``plan``, ``gcd-check`` and ``witness`` accept:
# their stated bounds (under 5 s for ``milnor``, under 1 s for the others)
# cover n <= 400.
_MILNOR_MAX_N = 400

# The largest COBFORGE_MAX_N ``reproduce`` accepts: its oracle sweep over every
# (n, k) with n <= 150 is 11,175 oracle calls, and ``reproduce`` takes 0.8-1.4 s.
_SWEEP_MAX_N = 150

Result = tuple[dict, dict, dict[str, bool]]

# The parts of a report's ``meta`` that cannot change within a process.
_VERSIONS = {"cobforge_version": __version__, "python": sys.version.split()[0]}


def _sweep_top() -> int:
    """``COBFORGE_MAX_N`` (default 100); ``ValueError`` naming it unless 2..150."""
    raw = os.environ.get("COBFORGE_MAX_N", "100")
    try:
        top = int(raw)
    except ValueError:
        raise ValueError(f"COBFORGE_MAX_N must be an integer, got {raw!r}") from None
    if not 2 <= top <= _SWEEP_MAX_N:
        raise ValueError(f"COBFORGE_MAX_N must be in 2..{_SWEEP_MAX_N}, got {top}")
    return top


def _checked_n(args: argparse.Namespace) -> int:
    """``args.n``; past ``_MILNOR_MAX_N``, ``ValueError`` naming the command."""
    if args.n > _MILNOR_MAX_N:
        raise ValueError(
            f"n = {args.n} is past {args.command}'s checked range n <= {_MILNOR_MAX_N}"
        )
    return args.n


def _load_polytope(path: str) -> polytope.SimplePolytope:
    with open(path, encoding="utf-8") as fh:
        return polytope.from_dict(json.load(fh))


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _plan_document(plan: planner.ModificationPlan) -> dict:
    return {
        "n": plan.n,
        "a": str(plan.a),
        "base_milnor": str(plan.base_milnor),
        "counts": list(plan.counts),
        "predicted_milnor": str(plan.predicted_milnor),
    }


def _plan_field(doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"plan document missing field {key!r}")
    return doc[key]


def _milnor_value(doc: dict, key: str) -> int:
    value = _plan_field(doc, key)
    if type(value) is int:
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"plan document: {key} must be a decimal string or an integer")


def _plan_from_document(doc: dict) -> planner.ModificationPlan:
    if not isinstance(doc, dict):
        raise ValueError("plan document must be a JSON object")
    n = _plan_field(doc, "n")
    counts = _plan_field(doc, "counts")
    if not isinstance(counts, list):
        raise ValueError("plan document: counts must be a list of integers")
    # ModificationPlan refuses any field that is not an integer.
    return planner.ModificationPlan(
        n=n,
        a=_milnor_value(doc, "a"),
        base_milnor=_milnor_value(doc, "base_milnor"),
        counts=tuple(counts),
        predicted_milnor=_milnor_value(doc, "predicted_milnor"),
    )


def cmd_milnor(args: argparse.Namespace) -> Result:
    n, k = _checked_n(args), args.k
    values = {"s_dkn": milnor.s_dkn, "s_kn": milnor.s_kn, "L": milnor.L_kn}
    value = values[args.table](n, k)
    print(f"{args.table}({n},{k}) = {value}")

    # The same quantity rebuilt from oracle values of s_dkn (at most 3 calls).
    def oracle_s_dkn(j: int) -> int:
        return chern.milnor_projectivisation(chern.dkn_spec(n, j))

    def oracle_s_kn(j: int) -> int:
        return -oracle_s_dkn(j) + milnor.point_blowup_delta(n)

    oracle_routes = {
        "s_dkn": lambda: oracle_s_dkn(k),
        "s_kn": lambda: oracle_s_kn(k),
        "L": lambda: -oracle_s_kn(k) + 3 * oracle_s_kn(k - 1) - 2 * oracle_s_kn(k - 2),
    }
    oracle = oracle_routes[args.table]()
    agree = value == oracle
    print(f"oracle {args.table}({n},{k}) = {oracle} ({'agrees' if agree else 'DISAGREES'})")
    outputs = {args.table: str(value), "oracle": str(oracle)}
    return {"n": n, "k": k, "table": args.table}, outputs, {"oracle_agrees": agree}


def cmd_gcd_check(args: argparse.Namespace) -> Result:
    g, holds = milnor.coprimality_check(_checked_n(args))
    print(f"gcd(s_kn({args.n}, 0..{args.n - 2})) = {g}")
    return {"n": args.n}, {"gcd": str(g), "holds": holds}, {"gcd_is_one": holds}


def cmd_witness(args: argparse.Namespace) -> Result:
    n, p = _checked_n(args), args.p
    k, residue = milnor.witness_k(n, p)
    value = milnor.L_kn(n, k)
    print(f"witness for (n={n}, p={p}): k = {k}, L({n},{k}) = {value}, residue {residue} mod {p}")
    checks = {"L_not_divisible": value % p == residue}
    return {"n": n, "p": p}, {"k": k, "L": str(value), "residue": residue}, checks


def cmd_plan(args: argparse.Namespace) -> Result:
    plan = planner.construct_plan(_checked_n(args))
    verdict = planner.milnor_novikov_check(plan.n, plan.predicted_milnor)
    doc = _plan_document(plan)
    print(json.dumps(doc, sort_keys=True))
    print(f"criterion branch: {verdict.required}")
    checks = {
        "sum_identity_verified": planner.verify_plan(plan),
        "milnor_novikov_generator": verdict.is_generator,
    }
    return {"n": args.n}, {"plan": doc, "required": verdict.required}, checks


def _cut_report(
    out: str | None, inputs: dict, label: str, result: polytope.SimplePolytope, expected: int
) -> Result:
    """The tail of both cut commands: ``--out``, the summary line and the vertex-count check."""
    doc = polytope.to_dict(result)
    if out:
        _write_json(doc, out)
    print(f"{label}: {result!r}")
    return inputs, {"polytope": doc}, {"vertex_count_delta": len(result.vertices) == expected}


def cmd_polytope_cut_vertex(args: argparse.Namespace) -> Result:
    p = _load_polytope(args.infile)
    result = polytope.cut_vertex(p, args.vertex)
    inputs = {"infile": args.infile, "vertex": args.vertex}
    expected = len(p.vertices) + p.dim - 1
    return _cut_report(args.out, inputs, f"cut vertex {args.vertex}", result, expected)


def cmd_polytope_cut_face(args: argparse.Namespace) -> Result:
    p = _load_polytope(args.infile)
    defining = [int(f) for f in args.facets.split(",")]
    cut = polytope.face(p, defining)
    result = polytope._cut_named_face(p, cut)
    facets = sorted(cut.defining_facets)
    inputs = {"infile": args.infile, "facets": facets}
    expected = len(p.vertices) + len(cut.vertex_set) * (len(facets) - 1)
    return _cut_report(args.out, inputs, f"cut face {facets}", result, expected)


def cmd_polytope_iso(args: argparse.Namespace) -> Result:
    p = _load_polytope(args.first)
    q = _load_polytope(args.second)
    mapping = polytope.comb_iso(p, q)
    found = mapping is not None
    print("combinatorially isomorphic" if found else "no isomorphism found")
    if found:
        print(f"facet bijection: {list(mapping)}")
    carried = polytope.carries_vertices(mapping, p, q)
    return (
        {"first": args.first, "second": args.second},
        {"isomorphic": found, "facet_bijection": list(mapping) if found else None},
        {"isomorphic": found, "bijection_carries_vertices": carried},
    )


def cmd_polytope_hvec(args: argparse.Namespace) -> Result:
    p = _load_polytope(args.infile)
    fv = polytope.f_vector(p)
    hv = polytope.h_from_f(fv)
    print(f"f-vector: {list(fv)}")
    print(f"h-vector: {list(hv)}")
    checks = {"dehn_sommerville": hv == hv[::-1]}
    return {"infile": args.infile}, {"f_vector": list(fv), "h_vector": list(hv)}, checks


def cmd_polytope_apply_plan(args: argparse.Namespace) -> Result:
    with open(args.plan, encoding="utf-8") as fh:
        plan = _plan_from_document(json.load(fh))
    polytope.check_plan_size(plan)
    verified = planner.verify_plan(plan)
    if not verified:
        return {"plan": args.plan}, {}, {"plan_verified": verified}
    result = polytope.apply_plan(plan)
    if args.out:
        _write_json(polytope.to_dict(result), args.out)
    print(f"applied plan for n={plan.n}: {result!r}")
    # Each modification adds two facets (a vertex cut and a face cut) to the
    # n+3 facets of the base; the vertex count has its own closed form.
    closed_vertices = polytope.plan_vertex_count(plan.n, plan.counts)
    closed_facets = plan.n + 3 + 2 * sum(plan.counts)
    checks = {
        "plan_verified": verified,
        "vertex_count_closed_form": len(result.vertices) == closed_vertices
        and result.facet_count == closed_facets,
    }
    # The plan is played whether or not it is a generator, so the
    # Milnor-Novikov verdict is reported, not checked.
    outputs = {
        "dim": result.dim,
        "facets": result.facet_count,
        "vertex_count": len(result.vertices),
        "is_generator": planner.milnor_novikov_check(plan.n, plan.predicted_milnor).is_generator,
    }
    return {"plan": args.plan}, outputs, checks


def cmd_polytope_rigidity(args: argparse.Namespace) -> Result:
    rep = polytope.rigidity_demo(args.n)
    delta_point, delta_top = milnor.s_kn(args.n, 0), milnor.s_kn(args.n, args.n - 2)
    print(f"shared h-vector: {list(rep.h_first)}")
    print(f"milnor deltas: k=0 gives {delta_point}, k={args.n - 2} gives {delta_top}")
    outputs = {
        "facet_bijection": list(rep.facet_bijection),
        "h_vector": list(rep.h_first),
        "delta_point": str(delta_point),
        "delta_top": str(delta_top),
    }
    carried = polytope.carries_vertices(rep.facet_bijection, rep.first, rep.last)
    checks = {
        "bijection_carries_vertices": carried,
        "h_vectors_equal": rep.h_first == rep.h_last,
        "deltas_differ": delta_point != delta_top,
    }
    return {"n": args.n}, outputs, checks


def cmd_reproduce(args: argparse.Namespace) -> Result:
    top = _sweep_top()
    checks: dict[str, bool] = {}
    outputs: dict = {}

    for n, expected in sorted(EXPECTED_L_TABLES.items()):
        row = tuple(milnor.L_kn(n, k) for k in range(2, n - 1))
        outputs[f"L_table_n{n}"] = [str(v) for v in row]
        checks[f"l_table_n{n}"] = row == expected

    for n in GCD_ONE_DIMENSIONS:
        _, holds = milnor.coprimality_check(n)
        checks[f"gcd_one_n{n}"] = holds

    for n in PRIME_POWER_DIMENSIONS:
        p, _ = prime_power_check(n + 1)
        divisible = all(s % p == 0 for s in milnor.s_kn_row(n))
        checks[f"divisibility_by_{p}_n{n}"] = divisible

    agree = all(
        s == chern.milnor_projectivisation(chern.dkn_spec(n, k))
        for n in range(2, top + 1)
        for k, s in enumerate(milnor.s_dkn_row(n))
    )
    outputs["oracle_sweep_top"] = top
    checks[f"oracle_sweep_2_to_{top}"] = agree

    for name, base, dims in (
        ("simplex", polytope.simplex, EQUIV_SIMPLEX_RANGE),
        ("product", polytope.plan_base, EQUIV_PRODUCT_RANGE),
    ):
        for n in dims:
            p = base(n)
            ok = all(polytope.verify_complementary_equiv(p, 0, k) for k in range(n - 1))
            checks[f"complementary_equiv_{name}_{n}"] = ok

    for n in PLAN_DIMENSIONS:
        plan = planner.construct_plan(n)
        verdict = planner.milnor_novikov_check(n, plan.predicted_milnor)
        ok = (
            plan.predicted_milnor == 1
            and planner.verify_plan(plan)
            and verdict.is_generator
        )
        outputs[f"plan_n{n}"] = _plan_document(plan)
        checks[f"plan_n{n}"] = ok

    return {"max_n": top}, outputs, checks


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="cobforge",
        description="Exact Milnor-number bookkeeping for blow-up modifications, "
        "generator plans, and simple-polytope truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument("--json", metavar="FILE", help="write the JSON report to FILE")
        p.set_defaults(func=handler)
        return p

    p_milnor = command(
        sub,
        "milnor",
        cmd_milnor,
        help="closed-form Milnor values, oracle-checked (n <= 400, under 5 s)",
        description="Print a closed-form value and check it against the fiber-integration "
        "oracle: at most three oracle calls, each O(k) big-integer steps, so n <= 400 "
        "checks in under 5 s (about 0.1 s end to end at n = 400, any k).  Larger n is "
        "refused (exit 1).",
    )
    p_milnor.add_argument("--n", type=int, required=True)
    p_milnor.add_argument("--k", type=int, required=True)
    p_milnor.add_argument("--table", choices=("s_dkn", "s_kn", "L"), default="s_dkn")

    p_gcd = command(sub, "gcd-check", cmd_gcd_check, help="gcd of the s_kn row for even n")
    p_gcd.add_argument("--n", type=int, required=True)

    p_wit = command(sub, "witness", cmd_witness, help="k with L_kn(n,k) not divisible by p")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--p", type=int, required=True)

    p_plan = command(sub, "plan", cmd_plan, help="construct and verify a modification plan")
    p_plan.add_argument("--n", type=int, required=True)

    p_poly = sub.add_parser("polytope", help="simple-polytope operations")
    poly_sub = p_poly.add_subparsers(dest="subcommand", required=True)

    p_cv = command(poly_sub, "cut-vertex", cmd_polytope_cut_vertex)
    p_cv.add_argument("--infile", required=True)
    p_cv.add_argument("--vertex", type=int, required=True)
    p_cv.add_argument("--out")

    p_cf = command(poly_sub, "cut-face", cmd_polytope_cut_face)
    p_cf.add_argument("--infile", required=True)
    p_cf.add_argument("--facets", required=True, help="comma-separated facet indices")
    p_cf.add_argument("--out")

    p_iso = command(poly_sub, "iso", cmd_polytope_iso)
    p_iso.add_argument("--first", required=True)
    p_iso.add_argument("--second", required=True)

    p_hv = command(poly_sub, "hvec", cmd_polytope_hvec)
    p_hv.add_argument("--infile", required=True)

    p_ap = command(poly_sub, "apply-plan", cmd_polytope_apply_plan)
    p_ap.add_argument("--plan", required=True, help="plan JSON file")
    p_ap.add_argument("--out")

    p_rig = command(poly_sub, "rigidity", cmd_polytope_rigidity)
    p_rig.add_argument("--n", type=int, required=True)

    command(sub, "reproduce", cmd_reproduce, help="run the full verification suite")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    try:
        inputs, outputs, checks = args.func(args)
        for name, passed in checks.items():
            print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        if args.json:
            report = {
                "command": command,
                "meta": {**_VERSIONS, "COBFORGE_MAX_N": os.environ.get("COBFORGE_MAX_N")},
                "inputs": inputs,
                "outputs": outputs,
                "checks": [{"name": name, "passed": bool(ok)} for name, ok in checks.items()],
            }
            _write_json(report, args.json)
            print(f"report written to {args.json}")
    except (ValueError, OSError, KeyError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passed = sum(1 for ok in checks.values() if ok)
    print(f"{command}: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def entrypoint() -> None:  # console-script shim
    # A closed stdout (``cobforge plan | head -n 1``) ends the process
    # quietly, as with any Unix filter, instead of an ``error:`` line.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
