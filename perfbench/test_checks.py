"""Self-test of the benchmark's checks.

Each check accepts the program's right output and rejects a deliberately
wrong one, so none of them can pass vacuously.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from workloads import make_plan  # noqa: E402

from cobforge import cli, milnor, planner, polytope, prime_power_check  # noqa: E402


def _small_plans(count: int = 12):
    rng = random.Random(7)
    return [make_plan(rng, rng.randint(3, 7), rng.randint(0, 8)) for _ in range(count)]


# -- reproduce -----------------------------------------------------------------


def _reproduce_report() -> dict:
    outputs = {f"L_table_n{n}": [str(v) for v in row] for n, row in checks.FROZEN_L_TABLES.items()}
    outputs["oracle_sweep_top"] = 16
    return {"checks": [{"name": f"c{i}", "passed": True} for i in range(22)], "outputs": outputs}


def test_reproduce_check_accepts_the_paper_values():
    assert checks.check_reproduce(0, _reproduce_report()) == []


def test_reproduce_check_rejects_each_wrong_expectation():
    assert checks.check_reproduce(1, _reproduce_report())
    short = _reproduce_report()
    short["checks"].pop()
    assert checks.check_reproduce(0, short)
    failed = _reproduce_report()
    failed["checks"][5]["passed"] = False
    assert checks.check_reproduce(0, failed)
    drifted = _reproduce_report()
    drifted["outputs"]["L_table_n6"][1] = "-188"
    assert checks.check_reproduce(0, drifted)
    vacuous = _reproduce_report()
    vacuous["outputs"]["oracle_sweep_top"] = 1
    assert checks.check_reproduce(0, vacuous)


def test_reproduce_check_rejects_a_shortened_oracle_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COBFORGE_MAX_N", "2")
    path = tmp_path / "report.json"
    rc = cli.main(["reproduce", "--json", str(path)])
    capsys.readouterr()
    problems = checks.check_reproduce(rc, json.loads(path.read_text()))
    assert any("oracle_sweep_top" in p for p in problems)


# -- plan_sweep ----------------------------------------------------------------


def test_plan_check_accepts_the_program_plan_and_rejects_tampering():
    plan = planner.construct_plan(14)
    a = plan.base.summands[1][1]
    args = (14, a, plan.base_milnor, list(plan.counts), plan.predicted_milnor)
    assert checks.check_plan(*args) == []
    # predicted value not 1, though the bookkeeping adds up
    bumped = list(plan.counts)
    bumped[0] += 1
    shifted = plan.predicted_milnor + checks.s_kn(14, 0)
    assert checks.check_plan(14, a, plan.base_milnor, bumped, shifted)
    assert checks.check_plan(14, a, plan.base_milnor + 1000, list(plan.counts), plan.predicted_milnor + 1000)
    assert checks.check_plan(14, a + 1, plan.base_milnor, list(plan.counts), plan.predicted_milnor)
    assert checks.check_plan(14, a, plan.base_milnor, bumped, plan.predicted_milnor)
    negative = list(plan.counts)
    negative[2] = -1
    assert checks.check_plan(14, a, plan.base_milnor, negative, plan.predicted_milnor)


def test_generator_check():
    assert checks.check_generator(14, 1, True) == []
    assert checks.check_generator(14, 1, False)
    assert checks.check_generator(14, 2, True)
    assert checks.check_generator(16, 1, True)  # 17 is prime


def test_closed_forms_agree_with_the_program():
    for n in range(2, 24):
        for k in range(n - 1):
            assert checks.s_kn(n, k) == milnor.s_kn(n, k)
        assert checks.is_prime_power(n + 1) == (prime_power_check(n + 1) is not None)


# -- apply_plan ----------------------------------------------------------------


def test_generated_plans_verify_in_the_program():
    for doc in _small_plans():
        assert planner.verify_plan(cli._plan_from_document(doc))


def test_reference_polytope_and_closed_form_match_the_program():
    for doc in _small_plans():
        n, counts = doc["n"], doc["counts"]
        p = polytope.apply_plan(cli._plan_from_document(doc))
        facets, verts = checks.reference_vertices(n, counts)
        assert (facets, verts) == (p.facet_count, [tuple(v) for v in p.vertex_tuples()])
        assert checks.h_closed(n, counts) == polytope.h_vector(p)


def test_apply_and_load_checks():
    n, counts = 5, [2, 0, 1, 3]
    h = checks.h_closed(n, counts)
    report = {"outputs": {"dim": n, "facets": n + 3 + 12, "vertex_count": sum(h)}}
    assert checks.check_apply(0, report, n, counts, h) == []
    assert checks.check_apply(1, report, n, counts, h)
    for key in ("dim", "facets", "vertex_count"):
        wrong = {"outputs": dict(report["outputs"], **{key: report["outputs"][key] + 1})}
        assert checks.check_apply(0, wrong, n, counts, h)
    assert checks.check_loaded(n, sum(h), n, h) == []
    assert checks.check_loaded(n, sum(h) - 1, n, h)


def test_hvec_check_rejects_an_h_vector_off_by_one():
    n, counts = 6, [1, 2, 0, 1, 1]
    h = list(checks.h_closed(n, counts))
    report = {"outputs": {"h_vector": h, "f_vector": [sum(h), 0]}}
    assert checks.check_hvec(0, report, h) == []
    assert checks.check_hvec(1, report, h)
    off = list(h)
    off[2] += 1
    assert checks.check_hvec(0, {"outputs": {"h_vector": off, "f_vector": [sum(h)]}}, h)
    assert checks.check_hvec(0, {"outputs": {"h_vector": h, "f_vector": [sum(h) + 1]}}, h)


def test_iso_check_accepts_only_a_true_bijection():
    doc = make_plan(random.Random(3), 5, 12)
    p = polytope.apply_plan(cli._plan_from_document(doc))
    first = p.vertex_tuples()
    perm = list(range(p.facet_count))
    random.Random(4).shuffle(perm)
    second = checks.relabel(first, perm)
    q = polytope.SimplePolytope(p.dim, p.facet_count, second)
    mapping = list(polytope.comb_iso(p, q))
    assert checks.check_iso(0, {"outputs": {"facet_bijection": mapping}}, first, second) == []
    assert checks.check_iso(1, {"outputs": {"facet_bijection": mapping}}, first, second)
    assert checks.check_iso(0, {"outputs": {"facet_bijection": None}}, first, second)
    assert checks.check_iso(0, {"outputs": {"facet_bijection": [0] * len(mapping)}}, first, second)
    # Swapping two facets of different degree can never give an isomorphism.
    degree = [sum(f in v for v in first) for f in range(p.facet_count)]
    a = 0
    b = next(f for f in range(p.facet_count) if degree[f] != degree[a])
    swapped = list(mapping)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    assert checks.check_iso(0, {"outputs": {"facet_bijection": swapped}}, first, second)
