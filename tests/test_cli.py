import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cobforge
from cobforge import cli, planner, polytope
from cobforge.cli import main
from cobforge.milnor import s_kn


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_polytope(path, p):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polytope.to_dict(p), fh)


def test_milnor_table_value(capsys):
    assert main(["milnor", "--n", "6", "--k", "3", "--table", "L"]) == 0
    assert "-189" in capsys.readouterr().out


def test_milnor_oracle_agreement(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["milnor", "--n", "4", "--k", "2", "--json", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "15" in captured and "agrees" in captured
    report = read_json(out)
    assert report["command"] == "milnor"
    assert report["outputs"]["s_dkn"] == "15"
    assert report["outputs"]["oracle"] == "15"
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("table", ["s_dkn", "s_kn", "L"])
def test_milnor_detects_oracle_disagreement(monkeypatch, capsys, table):
    true_oracle = cli.chern.milnor_projectivisation
    monkeypatch.setattr(cli.chern, "milnor_projectivisation", lambda spec: 2 * true_oracle(spec))
    assert main(["milnor", "--n", "6", "--k", "3", "--table", table]) == 1
    assert "[FAIL] oracle_agrees" in capsys.readouterr().out


def test_milnor_n400_within_stated_bound(tmp_path):
    # three oracle calls over CP^198..CP^200; the stated bound is n <= 400 in under 5 s
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["milnor", "--n", "400", "--k", "200", "--table", "L", "--json", str(out)]) == 0
    assert time.perf_counter() - start < 5.0
    report = read_json(out)
    assert report["checks"] == [{"name": "oracle_agrees", "passed": True}]
    assert report["outputs"]["oracle"] == report["outputs"]["L"]


def test_milnor_refuses_n_past_stated_bound(capsys):
    start = time.perf_counter()
    assert main(["milnor", "--n", "401", "--k", "200", "--table", "L"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "oracle" not in captured.out


def test_milnor_out_of_range_exits_nonzero(capsys):
    assert main(["milnor", "--n", "3", "--k", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_gcd_check(tmp_path, capsys):
    out = tmp_path / "gcd.json"
    assert main(["gcd-check", "--n", "14", "--json", str(out)]) == 0
    assert read_json(out)["outputs"] == {"gcd": "1", "holds": True}
    assert main(["gcd-check", "--n", "4"]) == 1  # gcd 5: check fails
    assert main(["gcd-check", "--n", "13"]) == 1  # odd: domain error


def test_witness(tmp_path):
    out = tmp_path / "witness.json"
    assert main(["witness", "--n", "14", "--p", "5", "--json", str(out)]) == 0
    report = read_json(out)
    assert report["outputs"]["k"] == 5
    assert int(report["outputs"]["residue"]) != 0
    assert [c["name"] for c in report["checks"]] == ["L_not_divisible"]
    assert main(["witness", "--n", "8", "--p", "3"]) == 1


def test_witness_checks_residue_against_direct_L(monkeypatch, capsys):
    # the digit-rule residue must match L mod p computed from the big integer
    k, residue = cli.milnor.witness_k(14, 5)
    wrong = next(r for r in range(1, 5) if r != residue)
    monkeypatch.setattr(cli.milnor, "witness_k", lambda n, p: (k, wrong))
    assert main(["witness", "--n", "14", "--p", "5"]) == 1
    assert "[FAIL] L_not_divisible" in capsys.readouterr().out


def test_plan_report(tmp_path, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", "--n", "14", "--json", str(out)]) == 0
    report = read_json(out)
    doc = report["outputs"]["plan"]
    assert doc["n"] == 14 and doc["a"] == "8732"
    assert doc["predicted_milnor"] == "1"
    assert doc["base_milnor"] == str(15 * 8732)
    assert len(doc["counts"]) == 13
    assert all(c["passed"] for c in report["checks"])
    assert main(["plan", "--n", "2"]) == 1


def test_plan_n398_within_stated_bound(tmp_path):
    # the largest even n under plan's bound n <= 400 with n+1 not a prime power: under 1 s
    out = tmp_path / "plan.json"
    start = time.perf_counter()
    assert main(["plan", "--n", "398", "--json", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    report = read_json(out)
    assert report["outputs"]["plan"]["predicted_milnor"] == "1"
    assert [c["name"] for c in report["checks"] if c["passed"]] == [
        "sum_identity_verified",
        "milnor_novikov_generator",
    ]


def test_plan_refuses_n_past_stated_bound(capsys):
    # n = 402 is admissible (403 = 13 * 31); only the bound refuses it
    start = time.perf_counter()
    assert main(["plan", "--n", "402"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "n <= 400" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gcd-check", "--n", "59048"],  # n+1 = 3^10: 9-11 s to walk the row unbounded
        ["gcd-check", "--n", str(10**18)],
        ["witness", "--n", "402", "--p", "13"],  # 403 = 13 * 31; only the bound refuses it
        ["witness", "--n", "14", "--p", str(10**18 + 3)],  # a prime not dividing 15
    ],
)
def test_gcd_check_and_witness_refuse_fast(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "n, predicted, modifications",
    [
        (399, "1", 5),  # odd n, 400 = 2^4 * 5^2 not a prime power
        (400, "401", 0),  # 401 is prime: the base alone (a = 1) is a generator
    ],
    ids=["n399", "n400"],
)
def test_plan_top_of_stated_bound(tmp_path, n, predicted, modifications):
    out = tmp_path / "plan.json"
    start = time.perf_counter()
    assert main(["plan", "--n", str(n), "--json", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    report = read_json(out)
    doc = report["outputs"]["plan"]
    assert doc["predicted_milnor"] == predicted and sum(doc["counts"]) == modifications
    assert int(doc["base_milnor"]) == (n + 1) * int(doc["a"])
    assert all(c["passed"] for c in report["checks"])


def test_plan_n50(capsys):
    # the base twist is a = 3,104,503,419,670,057, so base_milnor (~1.6e17)
    # is past the exact range of 64-bit floats
    assert main(["plan", "--n", "50"]) == 0
    assert "plan: 2/2 checks passed" in capsys.readouterr().out


def test_polytope_cut_vertex_roundtrip(tmp_path):
    infile = tmp_path / "simplex3.json"
    outfile = tmp_path / "cut.json"
    write_polytope(infile, polytope.simplex(3))
    rc = main(
        ["polytope", "cut-vertex", "--infile", str(infile), "--vertex", "0", "--out", str(outfile)]
    )
    assert rc == 0
    result = polytope.from_dict(read_json(outfile))
    assert result.facet_count == 5 and len(result.vertices) == 6


def test_polytope_cut_face_and_iso(tmp_path):
    s = polytope.simplex(3)
    q = polytope.cut_vertex(s, 0)
    qfile = tmp_path / "q.json"
    write_polytope(qfile, q)
    gverts = [v for v in q.vertices if s.facet_count in v]
    edge = sorted(set(gverts[1]).intersection(*gverts[2:]))
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    rc = main(
        [
            "polytope",
            "cut-face",
            "--infile",
            str(qfile),
            "--facets",
            ",".join(str(f) for f in edge),
            "--out",
            str(first),
        ]
    )
    assert rc == 0
    vertex_face = sorted(gverts[0])
    rc = main(
        [
            "polytope",
            "cut-face",
            "--infile",
            str(qfile),
            "--facets",
            ",".join(str(f) for f in vertex_face),
            "--out",
            str(second),
        ]
    )
    assert rc == 0
    iso_report = tmp_path / "iso.json"
    rc = main(
        ["polytope", "iso", "--first", str(first), "--second", str(second), "--json", str(iso_report)]
    )
    assert rc == 0
    report = read_json(iso_report)
    assert report["outputs"]["isomorphic"] is True
    assert sorted(report["outputs"]["facet_bijection"]) == list(range(6))
    assert report["checks"] == [
        {"name": "isomorphic", "passed": True},
        {"name": "bijection_carries_vertices", "passed": True},
    ]


def test_polytope_cut_face_names_the_face_once(tmp_path, monkeypatch):
    # the handler reports the face it cut, so it names it and cuts that face
    infile, out = tmp_path / "simplex.json", tmp_path / "cut.json"
    write_polytope(infile, polytope.simplex(3))
    calls = []
    face = polytope.face

    def counted(p, defining):
        calls.append(defining)
        return face(p, defining)

    monkeypatch.setattr(cli.polytope, "face", counted)
    args = ["--infile", str(infile), "--facets", "0,1", "--out", str(out)]
    assert main(["polytope", "cut-face", *args]) == 0
    assert len(calls) == 1
    assert polytope.from_dict(read_json(out)) == polytope.cut_face(polytope.simplex(3), [0, 1])


def test_polytope_cut_face_refuses_a_repeated_facet(tmp_path, capsys):
    # it cut the edge {0, 1} and exited 0
    infile, out = tmp_path / "simplex.json", tmp_path / "cut.json"
    write_polytope(infile, polytope.simplex(3))
    args = ["--infile", str(infile), "--facets", "0,0,1", "--out", str(out)]
    assert main(["polytope", "cut-face", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: repeated facet index in [0, 0, 1]\n" and captured.out == ""
    assert not out.exists()


def test_polytope_iso_checks_bijection_outside_search(tmp_path, monkeypatch, capsys):
    # a search that returns a permutation which is not an isomorphism: it
    # swaps the fresh triangle (facet 4) with a quadrilateral (facet 0)
    cut = tmp_path / "cut.json"
    write_polytope(cut, polytope.cut_vertex(polytope.simplex(3), 0))
    monkeypatch.setattr(cli.polytope, "comb_iso", lambda p, q: (4, 1, 2, 3, 0))
    assert main(["polytope", "iso", "--first", str(cut), "--second", str(cut)]) == 1
    assert "[FAIL] bijection_carries_vertices" in capsys.readouterr().out


def test_polytope_iso_negative(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_polytope(a, polytope.simplex(3))
    cube = polytope.product(
        polytope.product(polytope.simplex(1), polytope.simplex(1)), polytope.simplex(1)
    )
    write_polytope(b, cube)
    assert main(["polytope", "iso", "--first", str(a), "--second", str(b)]) == 1


def test_polytope_hvec(tmp_path):
    infile = tmp_path / "cut.json"
    write_polytope(infile, polytope.cut_vertex(polytope.simplex(3), 0))
    out = tmp_path / "hvec.json"
    assert main(["polytope", "hvec", "--infile", str(infile), "--json", str(out)]) == 0
    report = read_json(out)
    assert report["outputs"]["h_vector"] == [1, 2, 2, 1]
    assert report["outputs"]["f_vector"] == [6, 9, 5, 1]
    assert report["checks"] == [{"name": "dehn_sommerville", "passed": True}]


def test_polytope_hvec_fails_dehn_sommerville_on_a_torus(tmp_path, capsys):
    # the dual of the 7-vertex torus: every ridge lies in two vertices, but
    # V - E + F = 14 - 21 + 7 = 0, so Euler's relation refuses it at load
    triangles = [(i, i + 1, i + 3) for i in range(7)] + [(i, i + 2, i + 3) for i in range(7)]
    vertices = [sorted(f % 7 for f in t) for t in triangles]
    infile = tmp_path / "torus.json"
    infile.write_text(json.dumps({"dim": 3, "facets": 7, "vertices": vertices}), encoding="utf-8")
    out = tmp_path / "hvec.json"
    assert main(["polytope", "hvec", "--infile", str(infile), "--json", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Euler" in err and err.count("\n") == 1
    # torus x segment (dim 4) passes validation; only Dehn-Sommerville flags it
    prism = [v + [s] for v in vertices for s in (7, 8)]
    infile.write_text(json.dumps({"dim": 4, "facets": 9, "vertices": prism}), encoding="utf-8")
    assert main(["polytope", "hvec", "--infile", str(infile), "--json", str(out)]) == 1
    assert "[FAIL] dehn_sommerville" in capsys.readouterr().out
    report = read_json(out)
    assert report["outputs"] == {"f_vector": [28, 56, 35, 9, 1], "h_vector": [-1, 9, 14, 5, 1]}
    assert report["checks"] == [{"name": "dehn_sommerville", "passed": False}]


def test_polytope_hvec_enumerates_faces_once(tmp_path, monkeypatch):
    infile = tmp_path / "cube.json"
    write_polytope(infile, polytope.product(polytope.simplex(2), polytope.simplex(1)))
    calls = []
    f_vector = polytope.f_vector

    def counted(p):
        calls.append(p)
        return f_vector(p)

    monkeypatch.setattr(cli.polytope, "f_vector", counted)
    out = tmp_path / "hvec.json"
    assert main(["polytope", "hvec", "--infile", str(infile), "--json", str(out)]) == 0
    assert len(calls) == 1
    assert read_json(out)["outputs"]["h_vector"] == [1, 2, 2, 1]


def test_polytope_hvec_refuses_past_work_limit(tmp_path, capsys):
    # the shipped n = 20 plan's polytope: 262 * 2^20 subsets, past the 2^25 limit
    infile = tmp_path / "n20.json"
    write_polytope(infile, polytope.apply_plan(planner.construct_plan(20)))
    start = time.perf_counter()
    assert main(["polytope", "hvec", "--infile", str(infile)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: f-vector enumeration") and err.count("\n") == 1


def test_polytope_hvec_refuses_unused_facets_fast(tmp_path, capsys):
    # the 3-simplex's 4 vertices claiming 10^9 facets: counting the facets in
    # use builds no set of every claimed index
    doc = polytope.to_dict(polytope.simplex(3))
    doc["facets"] = 10**9
    infile = tmp_path / "facets.json"
    infile.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["polytope", "hvec", "--infile", str(infile)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: facet without any vertex\n"


def test_polytope_apply_plan(tmp_path):
    plan_file = tmp_path / "plan.json"
    out = tmp_path / "poly.json"
    doc = {
        "n": 4,
        "a": 1,
        "base_milnor": "5",
        "counts": [1, 0, 0],
        "predicted_milnor": str(5 - 10),
    }
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    argv = ["polytope", "apply-plan", "--plan", str(plan_file), "--out", str(out)]
    assert main(argv + ["--json", str(report)]) == 0
    result = polytope.from_dict(read_json(out))
    assert len(result.vertices) == 18
    # n + 1 = 5 is prime, so s = -5 is a generator
    assert read_json(report)["outputs"]["is_generator"] is True
    # corrupt the predicted value: verification must fail before any cutting
    doc["predicted_milnor"] = "99"
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1
    # base_milnor must be the Milnor number of the base the twist a describes
    doc.update(a=50, base_milnor="21", predicted_milnor=str(21 - 10))
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1


def test_polytope_apply_plan_reports_non_generators(tmp_path):
    # a verified plan that is not a generator still plays: the verdict is an
    # output, not a check (n + 1 = 6 is not a prime power, s = 6 - 8 = -2)
    plan_file = tmp_path / "plan.json"
    doc = {"n": 5, "a": 1, "base_milnor": "6", "counts": [1, 0, 0, 0], "predicted_milnor": "-2"}
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["polytope", "apply-plan", "--plan", str(plan_file), "--json", str(report)]) == 0
    report = read_json(report)
    assert report["outputs"]["is_generator"] is False
    assert [c["name"] for c in report["checks"]] == ["plan_verified", "vertex_count_closed_form"]


def test_polytope_apply_plan_checks_closed_form(tmp_path, monkeypatch, capsys):
    plan_file = tmp_path / "plan.json"
    doc = {"n": 4, "a": 1, "base_milnor": "5", "counts": [1, 0, 0], "predicted_milnor": "-5"}
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    base = polytope.plan_base(4)
    monkeypatch.setattr(cli.polytope, "apply_plan", lambda plan: base)
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1
    assert "[FAIL] vertex_count_closed_form" in capsys.readouterr().out


# n = 14 with no modifications, whose base_milnor is not (n+1)*a = 30
MISMATCHED_N14 = {
    "n": 14, "a": "2", "base_milnor": "45", "counts": [0] * 13, "predicted_milnor": "45"
}


def test_plan_document_round_trips_unchanged():
    assert cli._plan_document(cli._plan_from_document(MISMATCHED_N14)) == MISMATCHED_N14


def test_polytope_apply_plan_refuses_mismatched_twist(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(MISMATCHED_N14), encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["polytope", "apply-plan", "--plan", str(plan_file), "--json", str(report)]) == 1
    assert read_json(report)["checks"] == [{"name": "plan_verified", "passed": False}]


@pytest.mark.parametrize("n, vertices", [(14, 156), (20, 262), (32, 528), (98, 2198)])
def test_shipped_plan_plays(tmp_path, n, vertices):
    report = tmp_path / "plan-report.json"
    assert main(["plan", "--n", str(n), "--json", str(report)]) == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(read_json(report)["outputs"]["plan"]), encoding="utf-8")
    out = tmp_path / "apply-report.json"
    assert main(["polytope", "apply-plan", "--plan", str(plan_file), "--json", str(out)]) == 0
    out = read_json(out)
    assert [c["name"] for c in out["checks"]] == ["plan_verified", "vertex_count_closed_form"]
    assert all(c["passed"] for c in out["checks"])
    assert out["outputs"]["is_generator"] is True
    assert out["outputs"]["vertex_count"] == vertices


def test_readme_plan_flow(tmp_path, capsys):
    # the README's `cobforge plan --n 14 | sed -n 1p > plan.json`, then apply-plan
    assert main(["plan", "--n", "14"]) == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(capsys.readouterr().out.splitlines()[0] + "\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["polytope", "apply-plan", "--plan", str(plan_file), "--json", str(report)]) == 0
    assert read_json(report)["checks"] == [
        {"name": "plan_verified", "passed": True},
        {"name": "vertex_count_closed_form", "passed": True},
    ]


@pytest.mark.parametrize("a", [str(10**30), 10**30])
def test_polytope_apply_plan_reads_large_twist(tmp_path, a):
    # a past the exact range of 64-bit floats, as a decimal string or an integer
    milnor = str(15 * 10**30)
    doc = {"n": 14, "a": a, "base_milnor": milnor, "counts": [0] * 13, "predicted_milnor": milnor}
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 0


@pytest.mark.parametrize("n", [84, 98])
def test_polytope_apply_plan_refuses_oversized_plans(tmp_path, monkeypatch, capsys, n):
    # six modifications with k = n/2 build 11,408 (n=84) and 15,370 (n=98)
    # vertices; no built plan is that large, so the document is written out.
    # Its bookkeeping adds up, so only the size check can refuse it.
    counts = [0] * (n - 1)
    counts[n // 2] = 6
    predicted = n + 1 + 6 * s_kn(n, n // 2)
    doc = {"n": n, "a": 1, "base_milnor": str(n + 1), "counts": counts,
           "predicted_milnor": str(predicted)}
    assert polytope.plan_vertex_count(n, counts) > 10_000
    assert planner.verify_plan(cli._plan_from_document(doc))
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    verified = []
    monkeypatch.setattr(cli.planner, "verify_plan", lambda plan: verified.append(plan))
    start = time.perf_counter()
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1
    assert time.perf_counter() - start < 1.0
    assert verified == []
    err = capsys.readouterr().err
    assert err.startswith("error: plan would build") and err.count("\n") == 1


@pytest.mark.parametrize("n", [2000, 60000])
def test_polytope_apply_plan_refuses_past_n_100_before_verifying(tmp_path, capsys, n):
    # zero counts: n = 2000 builds only 7,996 vertices, under the vertex limit,
    # and verify_plan's walk of the s_dkn row alone takes seconds at n = 60000
    milnor = str(n + 1)
    doc = dict(PLAN_N4, n=n, base_milnor=milnor, counts=[0] * (n - 1), predicted_milnor=milnor)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"error: n = {n} is past the apply-plan range n <= 100\n"
    assert captured.out == ""


@pytest.fixture
def cli_inputs(tmp_path):
    """Small input documents for every subcommand, keyed by placeholder name."""
    s = polytope.simplex(3)
    q = polytope.cut_vertex(s, 0)
    cube = polytope.product(
        polytope.product(polytope.simplex(1), polytope.simplex(1)), polytope.simplex(1)
    )
    paths = {name: tmp_path / f"{name}.json" for name in ("simplex", "cut", "cube", "plan")}
    write_polytope(paths["simplex"], s)
    write_polytope(paths["cut"], q)
    write_polytope(paths["cube"], cube)
    doc = {"n": 4, "a": 1, "base_milnor": "5", "counts": [1, 0, 0], "predicted_milnor": "-5"}
    paths["plan"].write_text(json.dumps(doc), encoding="utf-8")
    gverts = [v for v in q.vertices if s.facet_count in v]
    edge = ",".join(str(f) for f in sorted(set(gverts[1]).intersection(*gverts[2:])))
    return {**{name: str(path) for name, path in paths.items()}, "edge": edge}


@pytest.mark.parametrize(
    "argv",
    [
        "milnor --n 4 --k 2",
        "milnor --n 6 --k 3 --table L",
        "gcd-check --n 14",
        "gcd-check --n 4",
        "witness --n 14 --p 5",
        "plan --n 14",
        "polytope cut-vertex --infile {simplex} --vertex 0",
        "polytope cut-face --infile {cut} --facets {edge}",
        "polytope iso --first {simplex} --second {simplex}",
        "polytope iso --first {simplex} --second {cube}",
        "polytope hvec --infile {cut}",
        "polytope apply-plan --plan {plan}",
        "polytope rigidity --n 3",
        "reproduce",
    ],
)
def test_report_contract(tmp_path, monkeypatch, capsys, cli_inputs, argv):
    monkeypatch.setenv("COBFORGE_MAX_N", "4")
    out = tmp_path / "report.json"
    words = argv.format(**cli_inputs).split()
    rc = main(words + ["--json", str(out)])
    report = read_json(out)
    assert set(report) == {"command", "meta", "inputs", "outputs", "checks"}
    assert report["command"] == argv.split(" --")[0]
    assert report["meta"] == {
        "cobforge_version": cobforge.__version__,
        "python": platform.python_version(),
        "COBFORGE_MAX_N": "4",
    }
    passed = [c["passed"] for c in report["checks"]]
    assert report["checks"] and (rc == 0) == all(passed)
    summary = f"{report['command']}: {sum(passed)}/{len(passed)} checks passed"
    assert summary in capsys.readouterr().out


def test_report_meta_names_an_unset_cap_null(tmp_path, monkeypatch):
    # the raw environment value: null when unset, even where a default applies
    monkeypatch.delenv("COBFORGE_MAX_N", raising=False)
    out = tmp_path / "report.json"
    assert main(["gcd-check", "--n", "14", "--json", str(out)]) == 0
    assert read_json(out)["meta"]["COBFORGE_MAX_N"] is None
    monkeypatch.setenv("COBFORGE_MAX_N", " 16")
    assert main(["gcd-check", "--n", "14", "--json", str(out)]) == 0
    assert read_json(out)["meta"]["COBFORGE_MAX_N"] == " 16"


# A valid n = 4 plan with no modifications; each malformed variant below ran
# (coerced by int()) when documents were not type-checked.
PLAN_N4 = {"n": 4, "a": 1, "base_milnor": "5", "counts": [0, 0, 0], "predicted_milnor": "5"}


@pytest.mark.parametrize(
    "argv, document",
    [
        (["polytope", "hvec", "--infile"], {"dim": 3, "facets": 4, "vertices": 5}),
        (["polytope", "hvec", "--infile"], {"dim": 3, "facets": 4, "vertices": [[0, 1, "2"]]}),
        (["polytope", "hvec", "--infile"], [3, 4]),
        (["polytope", "apply-plan", "--plan"], {"n": None, "a": 1}),
        (["polytope", "apply-plan", "--plan"], [4, 1]),
        (["polytope", "apply-plan", "--plan"], dict(PLAN_N4, n=4.9)),
        (["polytope", "apply-plan", "--plan"], dict(PLAN_N4, counts=[0.9, 0, 0])),
        (["polytope", "apply-plan", "--plan"], dict(PLAN_N4, a=True, base_milnor=5.0)),
        (["polytope", "apply-plan", "--plan"], dict(PLAN_N4, counts="123", predicted_milnor="-75")),
        (["polytope", "apply-plan", "--plan"], {k: v for k, v in PLAN_N4.items() if k != "n"}),
        (
            ["polytope", "apply-plan", "--plan"],
            {k: v for k, v in PLAN_N4.items() if k != "predicted_milnor"},
        ),
    ],
)
def test_malformed_documents_exit_one(tmp_path, capsys, argv, document):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert main(argv + [str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    missing = PLAN_N4.keys() - document.keys() if isinstance(document, dict) else ()
    if len(missing) == 1:  # a plan document short of one field names it
        assert err == f"error: plan document missing field {missing.pop()!r}\n"


def test_polytope_rigidity(tmp_path, monkeypatch):
    monkeypatch.setattr(polytope, "comb_iso", lambda p, q: pytest.fail("searched"))
    out = tmp_path / "rig.json"
    assert main(["polytope", "rigidity", "--n", "3", "--json", str(out)]) == 0
    report = read_json(out)
    assert report["outputs"]["delta_point"] == "-4"
    assert report["outputs"]["delta_top"] == "-2"
    assert [c["name"] for c in report["checks"]] == [
        "bijection_carries_vertices",
        "h_vectors_equal",
        "deltas_differ",
    ]
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("n", [20, 1000])
def test_polytope_rigidity_refuses_past_work_limit(capsys, n):
    # both polytopes would have 3n-1 vertices, past the f-vector limit for n >= 20
    start = time.perf_counter()
    assert main(["polytope", "rigidity", "--n", str(n)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: f-vector enumeration") and err.count("\n") == 1


def test_polytope_rigidity_checks_bijection_outside_search(monkeypatch, capsys):
    # the identity is a facet permutation but not an isomorphism of the two cuts
    monkeypatch.setattr(polytope, "_swap_new_facets", lambda p: tuple(range(p.facet_count + 2)))
    assert main(["polytope", "rigidity", "--n", "3"]) == 1
    assert "[FAIL] bijection_carries_vertices" in capsys.readouterr().out


@pytest.mark.parametrize("n", range(3, 7))
def test_polytope_rigidity_rejects_the_same_face_twice(monkeypatch, capsys, n):
    # a modify that cuts side 0 on both sides builds one polytope twice, which
    # the swap of the two new facets does not carry onto itself
    modify = polytope._Incidence.modify
    monkeypatch.setattr(
        polytope._Incidence, "modify", lambda self, vertex, k, side: modify(self, vertex, k, 0)
    )
    assert main(["polytope", "rigidity", "--n", str(n)]) == 1
    assert "[FAIL] bijection_carries_vertices" in capsys.readouterr().out


def test_reproduce_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COBFORGE_MAX_N", "8")
    out = tmp_path / "rep.json"
    assert main(["reproduce", "--json", str(out)]) == 0
    report = read_json(out)
    assert report["inputs"]["max_n"] == 8
    assert report["checks"] and all(c["passed"] for c in report["checks"])
    assert "checks passed" in capsys.readouterr().out


def test_reproduce_at_the_cap_within_stated_bound(tmp_path, monkeypatch):
    # the largest oracle sweep, 11,175 oracle calls: 0.77-1.19 s in-process
    # (Python 3.11, shared 2-vCPU host); the budget leaves over 2x for host drift
    monkeypatch.setenv("COBFORGE_MAX_N", "150")
    out = tmp_path / "rep.json"
    start = time.perf_counter()
    assert main(["reproduce", "--json", str(out)]) == 0
    assert time.perf_counter() - start < 2.5
    report = read_json(out)
    assert report["outputs"]["oracle_sweep_top"] == 150
    assert report["checks"] and all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("value", ["1", "0", "-3", "abc", "1.5", "", "151", "400", "1" + "0" * 30])
def test_reproduce_rejects_empty_oracle_sweep(monkeypatch, capsys, value):
    # past 150 the sweep would take over 5 s (400: 79,800 oracle calls)
    monkeypatch.setenv("COBFORGE_MAX_N", value)
    start = time.perf_counter()
    assert main(["reproduce"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: COBFORGE_MAX_N") and captured.err.count("\n") == 1


def test_arithmetic_error_exits_one(monkeypatch, capsys):
    def failing_witness(n, p):
        raise ArithmeticError("witness residue vanished")

    monkeypatch.setattr(cli.milnor, "witness_k", failing_witness)
    assert main(["witness", "--n", "14", "--p", "5"]) == 1
    assert capsys.readouterr().err == "error: witness residue vanished\n"


def test_recursion_error_exits_one(tmp_path, monkeypatch, capsys):
    def deep_iso(p, q):
        raise RecursionError("maximum recursion depth exceeded")

    first = tmp_path / "a.json"
    write_polytope(first, polytope.simplex(3))
    monkeypatch.setattr(cli.polytope, "comb_iso", deep_iso)
    assert main(["polytope", "iso", "--first", str(first), "--second", str(first)]) == 1
    assert capsys.readouterr().err == "error: maximum recursion depth exceeded\n"


def test_deeply_nested_document_exits_one(tmp_path, capsys):
    # json.load recurses once per nesting level
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    second = tmp_path / "b.json"
    write_polytope(second, polytope.simplex(3))
    assert main(["polytope", "iso", "--first", str(deep), "--second", str(second)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_parser_built_once_without_state_between_calls(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    report = tmp_path / "report.json"
    argv = ["witness", "--n", "14", "--p", "3"]
    assert main(argv + ["--json", str(report)]) == 0
    report.unlink()
    assert main(argv) == 0
    assert not report.exists()


def test_reproduce_detects_corrupted_table(monkeypatch):
    monkeypatch.setenv("COBFORGE_MAX_N", "6")
    corrupted = dict(cli.EXPECTED_L_TABLES)
    corrupted[6] = (70, -189, 239)
    monkeypatch.setattr(cli, "EXPECTED_L_TABLES", corrupted)
    assert main(["reproduce"]) == 1


def test_reports_have_no_timestamps(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["witness", "--n", "14", "--p", "3", "--json", str(out1)]) == 0
    assert main(["witness", "--n", "14", "--p", "3", "--json", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["milnor"])  # missing required arguments
    assert exc.value.code == 2


@pytest.fixture
def keep_sigpipe():
    """Give the test process back the SIGPIPE action that ``entrypoint`` resets."""
    if not hasattr(signal, "SIGPIPE"):
        yield
        return
    previous = signal.getsignal(signal.SIGPIPE)
    yield
    signal.signal(signal.SIGPIPE, previous)


@pytest.mark.parametrize("n, code", [("14", 0), ("4", 1)])
def test_console_script_exit_codes(monkeypatch, capsys, keep_sigpipe, n, code):
    # the ``cobforge`` command of pyproject.toml; gcd 5 at n = 4 fails its check
    monkeypatch.setattr(sys, "argv", ["cobforge", "gcd-check", "--n", n])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == code
    assert capsys.readouterr().out.endswith(f"gcd-check: {1 - code}/1 checks passed\n")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_console_script_ends_quietly_on_closed_stdout():
    # the reader has gone before the first write, as in ``cobforge plan | head -n 1``
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cobforge.cli", "plan", "--n", "14"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE
