"""Command-line surface: every pipeline stage with JSON reports.

Each subcommand prints human-readable lines to stdout and can write a
machine-readable JSON report with ``--json FILE``.  A report carries the
command name, an echo of the inputs, the outputs, and a list of named
checks; the process exits 0 exactly when every check passed.  Milnor-type
quantities are serialized as decimal strings so consumers without big
integers cannot lose precision.

Exit codes: 0 all checks passed, 1 domain error or failed check, 2 usage.
The environment variable COBFORGE_MAX_N caps the oracle sweep size of the
``reproduce`` command (default 32, at least 2).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import chern, milnor, planner, polytope
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


def _sweep_top() -> int:
    top = int(os.environ.get("COBFORGE_MAX_N", "32"))
    if top < 2:
        raise ValueError(f"COBFORGE_MAX_N must be >= 2, got {top}")
    return top


def _report(command: str, inputs: dict, outputs: dict, checks: list[dict]) -> dict:
    return {"command": command, "inputs": inputs, "outputs": outputs, "checks": checks}


def _check(name: str, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed)}


def _finish(report: dict, json_path: str | None) -> int:
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {json_path}")
    return 0 if all(c["passed"] for c in report["checks"]) else 1


def _load_polytope(path: str) -> polytope.SimplePolytope:
    with open(path, encoding="utf-8") as fh:
        return polytope.from_dict(json.load(fh))


def _store_polytope(p: polytope.SimplePolytope, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polytope.to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plan_document(plan: planner.ModificationPlan) -> dict:
    return {
        "n": plan.n,
        "a": plan.a,
        "base_milnor": str(plan.base_milnor),
        "counts": list(plan.counts),
        "predicted_milnor": str(plan.predicted_milnor),
    }


def _plan_from_document(doc: dict) -> planner.ModificationPlan:
    try:
        n = int(doc["n"])
        a = int(doc["a"])
        return planner.ModificationPlan(
            n=n,
            base=chern.adjustable_base_spec(n, a),
            base_milnor=int(doc["base_milnor"]),
            counts=tuple(int(c) for c in doc["counts"]),
            predicted_milnor=int(doc["predicted_milnor"]),
        )
    except TypeError as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc


def cmd_milnor(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    values = {"s_dkn": milnor.s_dkn, "s_kn": milnor.s_kn, "L": milnor.L_kn}
    value = values[args.table](n, k)
    print(f"{args.table}({n},{k}) = {value}")
    outputs = {args.table: str(value)}
    checks = []
    if args.oracle:
        closed = milnor.s_dkn(n, k)
        oracle = chern.milnor_projectivisation(chern.dkn_spec(n, k))
        agree = closed == oracle
        print(f"oracle s_dkn({n},{k}) = {oracle} ({'agrees' if agree else 'DISAGREES'})")
        outputs["s_dkn"] = str(closed)
        outputs["oracle"] = str(oracle)
        checks.append(_check("oracle_agrees", agree))
    report = _report(
        "milnor",
        {"n": n, "k": k, "table": args.table, "oracle": bool(args.oracle)},
        outputs,
        checks,
    )
    return _finish(report, args.json)


def cmd_gcd_check(args: argparse.Namespace) -> int:
    g, holds = milnor.coprimality_check(args.n)
    print(f"gcd(s_kn({args.n}, 0..{args.n - 2})) = {g}")
    report = _report(
        "gcd-check",
        {"n": args.n},
        {"gcd": str(g), "holds": holds},
        [_check("gcd_is_one", holds)],
    )
    return _finish(report, args.json)


def cmd_witness(args: argparse.Namespace) -> int:
    n, p = args.n, args.p
    k, residue = milnor.witness_k(n, p)
    value = milnor.L_kn(n, k)
    print(f"witness for (n={n}, p={p}): k = {k}, L({n},{k}) = {value}, residue {residue} mod {p}")
    checks = [
        _check("witness_in_range", 2 <= k <= n - 2),
        _check("L_not_divisible", value % p != 0),
    ]
    report = _report(
        "witness",
        {"n": n, "p": p},
        {"k": k, "L": str(value), "residue": residue},
        checks,
    )
    return _finish(report, args.json)


def cmd_plan(args: argparse.Namespace) -> int:
    plan = planner.construct_plan(args.n)
    verified = planner.verify_plan(plan)
    verdict = planner.milnor_novikov_check(plan.n, plan.predicted_milnor)
    doc = _plan_document(plan)
    print(json.dumps(doc, sort_keys=True))
    print(f"criterion branch: {verdict.required}")
    checks = [
        _check("sum_identity_verified", verified),
        _check("milnor_novikov_generator", verdict.is_generator),
    ]
    report = _report(
        "plan",
        {"n": args.n},
        {"plan": doc, "required": verdict.required},
        checks,
    )
    return _finish(report, args.json)


def cmd_polytope_cut_vertex(args: argparse.Namespace) -> int:
    p = _load_polytope(args.infile)
    result = polytope.cut_vertex(p, args.vertex)
    if args.out:
        _store_polytope(result, args.out)
    print(f"cut vertex {args.vertex}: {result!r}")
    checks = [
        _check("output_valid", True),
        _check("vertex_count_delta", len(result.vertices) == len(p.vertices) + p.dim - 1),
    ]
    report = _report(
        "polytope cut-vertex",
        {"infile": args.infile, "vertex": args.vertex},
        {"polytope": polytope.to_dict(result)},
        checks,
    )
    return _finish(report, args.json)


def cmd_polytope_cut_face(args: argparse.Namespace) -> int:
    p = _load_polytope(args.infile)
    defining = [int(f) for f in args.facets.split(",")]
    cut = polytope.face(p, defining)
    result = polytope.cut_face(p, defining)
    if args.out:
        _store_polytope(result, args.out)
    print(f"cut face {sorted(cut.defining_facets)}: {result!r}")
    expected_delta = len(cut.vertex_set) * (cut.codim - 1)
    checks = [
        _check("output_valid", True),
        _check(
            "vertex_count_delta",
            len(result.vertices) == len(p.vertices) + expected_delta,
        ),
    ]
    report = _report(
        "polytope cut-face",
        {"infile": args.infile, "facets": sorted(cut.defining_facets)},
        {"polytope": polytope.to_dict(result)},
        checks,
    )
    return _finish(report, args.json)


def cmd_polytope_iso(args: argparse.Namespace) -> int:
    p = _load_polytope(args.first)
    q = _load_polytope(args.second)
    mapping = polytope.comb_iso(p, q)
    found = mapping is not None
    print("combinatorially isomorphic" if found else "no isomorphism found")
    if found:
        print(f"facet bijection: {list(mapping)}")
    report = _report(
        "polytope iso",
        {"first": args.first, "second": args.second},
        {"isomorphic": found, "facet_bijection": list(mapping) if found else None},
        [_check("isomorphic", found)],
    )
    return _finish(report, args.json)


def cmd_polytope_hvec(args: argparse.Namespace) -> int:
    p = _load_polytope(args.infile)
    fv = polytope.f_vector(p, force=args.force)
    hv = polytope.h_vector(p, force=args.force)
    chi = polytope.ChiPolynomial(hv)
    print(f"f-vector: {list(fv)}")
    print(f"h-vector: {list(hv)}")
    checks = [
        _check("dehn_sommerville", hv == hv[::-1]),
        _check("h_sum_is_vertex_count", sum(hv) == len(p.vertices)),
        _check("chi_at_one_one_is_vertex_count", chi(1, 1) == len(p.vertices)),
    ]
    report = _report(
        "polytope hvec",
        {"infile": args.infile},
        {"f_vector": list(fv), "h_vector": list(hv)},
        checks,
    )
    return _finish(report, args.json)


def cmd_polytope_apply_plan(args: argparse.Namespace) -> int:
    with open(args.plan, encoding="utf-8") as fh:
        plan = _plan_from_document(json.load(fh))
    verified = planner.verify_plan(plan)
    if not verified:
        report = _report(
            "polytope apply-plan",
            {"plan": args.plan},
            {},
            [_check("plan_verified", False)],
        )
        return _finish(report, args.json)
    result = polytope.apply_plan(plan)
    if args.out:
        _store_polytope(result, args.out)
    print(f"applied plan for n={plan.n}: {result!r}")
    report = _report(
        "polytope apply-plan",
        {"plan": args.plan},
        {"dim": result.dim, "facets": result.facet_count, "vertex_count": len(result.vertices)},
        [_check("plan_verified", True), _check("output_valid", True)],
    )
    return _finish(report, args.json)


def cmd_polytope_rigidity(args: argparse.Namespace) -> int:
    rep = polytope.rigidity_demo(args.n)
    print(f"shared h-vector: {list(rep.h_first)}")
    print(f"milnor deltas: k=0 gives {rep.delta_point}, k={args.n - 2} gives {rep.delta_top}")
    checks = [
        _check("iso_found", rep.iso_found),
        _check("h_vectors_equal", rep.h_match),
        _check("deltas_differ", rep.deltas_differ),
    ]
    report = _report(
        "polytope rigidity",
        {"n": args.n},
        {
            "facet_bijection": list(rep.facet_bijection) if rep.iso_found else None,
            "h_vector": list(rep.h_first),
            "delta_point": str(rep.delta_point),
            "delta_top": str(rep.delta_top),
        },
        checks,
    )
    return _finish(report, args.json)


def _reproduce_checks(top: int) -> tuple[list[dict], dict]:
    checks: list[dict] = []
    outputs: dict = {}

    for n, expected in sorted(EXPECTED_L_TABLES.items()):
        row = tuple(milnor.L_kn(n, k) for k in range(2, n - 1))
        outputs[f"L_table_n{n}"] = [str(v) for v in row]
        checks.append(_check(f"l_table_n{n}", row == expected))

    for n in GCD_ONE_DIMENSIONS:
        _, holds = milnor.coprimality_check(n)
        checks.append(_check(f"gcd_one_n{n}", holds))

    for n in PRIME_POWER_DIMENSIONS:
        p, _ = prime_power_check(n + 1)
        divisible = all(milnor.s_kn(n, k) % p == 0 for k in range(n - 1))
        checks.append(_check(f"divisibility_by_{p}_n{n}", divisible))

    agree = all(
        milnor.s_dkn(n, k) == chern.milnor_projectivisation(chern.dkn_spec(n, k))
        for n in range(2, top + 1)
        for k in range(n - 1)
    )
    outputs["oracle_sweep_top"] = top
    checks.append(_check(f"oracle_sweep_2_to_{top}", agree))

    for n in EQUIV_SIMPLEX_RANGE:
        p = polytope.simplex(n)
        ok = all(polytope.verify_complementary_equiv(p, 0, k) for k in range(n - 1))
        checks.append(_check(f"complementary_equiv_simplex_{n}", ok))
    for n in EQUIV_PRODUCT_RANGE:
        p = polytope.product(
            polytope.product(polytope.simplex(1), polytope.simplex(1)),
            polytope.simplex(n - 2),
        )
        ok = all(polytope.verify_complementary_equiv(p, 0, k) for k in range(n - 1))
        checks.append(_check(f"complementary_equiv_product_{n}", ok))

    for n in PLAN_DIMENSIONS:
        plan = planner.construct_plan(n)
        verdict = planner.milnor_novikov_check(n, plan.predicted_milnor)
        ok = (
            plan.predicted_milnor == 1
            and planner.verify_plan(plan)
            and verdict.is_generator
        )
        outputs[f"plan_n{n}"] = _plan_document(plan)
        checks.append(_check(f"plan_n{n}", ok))

    return checks, outputs


def cmd_reproduce(args: argparse.Namespace) -> int:
    top = _sweep_top()
    checks, outputs = _reproduce_checks(top)
    passed = sum(1 for c in checks if c["passed"])
    report = _report("reproduce", {"max_n": top}, outputs, checks)
    status = _finish(report, args.json)
    print(f"reproduce: {passed}/{len(checks)} checks passed")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobforge",
        description="Exact Milnor-number bookkeeping for blow-up modifications, "
        "generator plans, and simple-polytope truncations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", metavar="FILE", help="write the JSON report to FILE")

    p_milnor = sub.add_parser("milnor", help="closed-form Milnor quantities")
    p_milnor.add_argument("--n", type=int, required=True)
    p_milnor.add_argument("--k", type=int, required=True)
    p_milnor.add_argument("--table", choices=("s_dkn", "s_kn", "L"), default="s_dkn")
    p_milnor.add_argument(
        "--oracle", action="store_true", help="also run the fiber-integration oracle"
    )
    add_json(p_milnor)
    p_milnor.set_defaults(func=cmd_milnor)

    p_gcd = sub.add_parser("gcd-check", help="gcd of the s_kn row for even n")
    p_gcd.add_argument("--n", type=int, required=True)
    add_json(p_gcd)
    p_gcd.set_defaults(func=cmd_gcd_check)

    p_wit = sub.add_parser("witness", help="k with L_kn(n,k) not divisible by p")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--p", type=int, required=True)
    add_json(p_wit)
    p_wit.set_defaults(func=cmd_witness)

    p_plan = sub.add_parser("plan", help="construct and verify a modification plan")
    p_plan.add_argument("--n", type=int, required=True)
    add_json(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_poly = sub.add_parser("polytope", help="simple-polytope operations")
    poly_sub = p_poly.add_subparsers(dest="subcommand", required=True)

    p_cv = poly_sub.add_parser("cut-vertex")
    p_cv.add_argument("--infile", required=True)
    p_cv.add_argument("--vertex", type=int, required=True)
    p_cv.add_argument("--out")
    add_json(p_cv)
    p_cv.set_defaults(func=cmd_polytope_cut_vertex)

    p_cf = poly_sub.add_parser("cut-face")
    p_cf.add_argument("--infile", required=True)
    p_cf.add_argument("--facets", required=True, help="comma-separated facet indices")
    p_cf.add_argument("--out")
    add_json(p_cf)
    p_cf.set_defaults(func=cmd_polytope_cut_face)

    p_iso = poly_sub.add_parser("iso")
    p_iso.add_argument("--first", required=True)
    p_iso.add_argument("--second", required=True)
    add_json(p_iso)
    p_iso.set_defaults(func=cmd_polytope_iso)

    p_hv = poly_sub.add_parser("hvec")
    p_hv.add_argument("--infile", required=True)
    p_hv.add_argument("--force", action="store_true")
    add_json(p_hv)
    p_hv.set_defaults(func=cmd_polytope_hvec)

    p_ap = poly_sub.add_parser("apply-plan")
    p_ap.add_argument("--plan", required=True, help="plan JSON file")
    p_ap.add_argument("--out")
    add_json(p_ap)
    p_ap.set_defaults(func=cmd_polytope_apply_plan)

    p_rig = poly_sub.add_parser("rigidity")
    p_rig.add_argument("--n", type=int, required=True)
    add_json(p_rig)
    p_rig.set_defaults(func=cmd_polytope_rigidity)

    p_rep = sub.add_parser("reproduce", help="run the full verification suite")
    add_json(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
