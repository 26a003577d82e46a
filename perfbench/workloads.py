"""The benchmark's three workloads: seeded inputs, jobs and their checks.

A workload's ``setup(cobforge, seed, workdir)`` generates and writes every
input and returns the jobs of one pass.  A job runs one call into the
program; its check runs after the pass, outside the timed region, and
compares the output with a route in :mod:`checks` that does not use the
code under test.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks

# Every admissible even n <= 44 (n+1 not a prime power).  construct_plan(50)
# gave no result in about 9 min at the seed, so the sweep stops at 44.
PLAN_SWEEP_NS = (14, 20, 32, 34, 38, 44)

# apply_plan: (n, modifications) for each plan document.  The seed draws how
# the modifications split over k and the facet relabelling; the sizes are
# fixed so that every seed does nearly the same work.  A step costs O(V·n)
# at the seed, so the largest plans shrink as n grows.
APPLY_PLAN_SIZES = (
    (4, 30), (4, 80), (4, 140),
    (5, 20), (5, 50), (5, 85),
    (6, 15), (6, 35), (6, 60),
    (7, 10), (7, 25), (7, 45),
)


@dataclass
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    outputs: tuple[Path, ...] = ()
    result: Any = field(default=None, repr=False)


def _cli(cobforge, argv: list[str]) -> int:
    """cobforge's CLI in-process, with its printing captured."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        return cobforge.cli.main(argv)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# -- reproduce -----------------------------------------------------------------


def setup_reproduce(cobforge, seed: int, workdir: Path) -> list[Job]:
    """The paper's verification suite; it takes no input, so the seed only names the report."""
    report = workdir / f"reproduce-{seed}.json"

    def check(rc: int) -> list[str]:
        return checks.check_reproduce(rc, _read_json(report))

    argv = ["reproduce", "--json", str(report)]
    return [Job("reproduce", lambda: _cli(cobforge, argv), check, (report,))]


# -- plan_sweep ----------------------------------------------------------------


def setup_plan_sweep(cobforge, seed: int, workdir: Path) -> list[Job]:
    """One job per n, in seeded order: construct_plan, verify_plan, generator criterion."""
    planner = cobforge.planner
    order = list(PLAN_SWEEP_NS)
    random.Random(seed).shuffle(order)

    def job(n: int):
        plan = planner.construct_plan(n)
        return plan, planner.verify_plan(plan), planner.milnor_novikov_check(n, plan.predicted_milnor)

    def check(result, n: int) -> list[str]:
        plan, verified, verdict = result
        a = plan.base.summands[1][1]  # twist of the base bundle O(0, a)
        problems = checks.check_plan(n, a, plan.base_milnor, plan.counts, plan.predicted_milnor)
        if verified is not True:
            problems.append(f"verify_plan returned {verified!r}")
        return problems + checks.check_generator(n, plan.predicted_milnor, verdict.is_generator)

    return [
        Job(f"plan_n{n}", lambda n=n: job(n), lambda result, n=n: check(result, n))
        for n in order
    ]


# -- apply_plan ----------------------------------------------------------------


def make_plan(rng: random.Random, n: int, modifications: int) -> dict:
    """A bookkeeping-consistent plan document with a = 1 and random counts."""
    counts = [0] * (n - 1)
    for k in rng.choices(range(n - 1), k=modifications):
        counts[k] += 1
    predicted = (n + 1) + sum(c * checks.s_kn(n, k) for k, c in enumerate(counts))
    return {
        "n": n,
        "a": 1,
        "base_milnor": str(n + 1),
        "counts": counts,
        "predicted_milnor": str(predicted),
    }


def setup_apply_plan(cobforge, seed: int, workdir: Path) -> list[Job]:
    """Per plan: apply-plan (writes), then load, hvec and iso against a relabelling (read)."""
    rng = random.Random(seed)
    jobs = []
    for i, (n, size) in enumerate(APPLY_PLAN_SIZES):
        doc = make_plan(rng, n, size)
        counts = doc["counts"]
        h = checks.h_closed(n, counts)
        facets, verts = checks.reference_vertices(n, counts)
        perm = list(range(facets))
        rng.shuffle(perm)
        plan_path = workdir / f"plan-{i}.json"
        poly_path = workdir / f"poly-{i}.json"
        relabelled_path = workdir / f"relabelled-{i}.json"
        reports = {kind: workdir / f"{kind}-{i}.report.json" for kind in ("apply", "hvec", "iso")}
        _write_json(plan_path, doc)
        relabelled = checks.relabel(verts, perm)
        _write_json(relabelled_path, {"dim": n, "facets": facets, "vertices": relabelled})

        def load(poly_path=poly_path):
            with open(poly_path, encoding="utf-8") as fh:
                return cobforge.polytope.from_dict(json.load(fh))

        def check_iso(rc, poly_path=poly_path, rep=reports["iso"], relabelled=relabelled):
            first = _read_json(poly_path)["vertices"]
            return checks.check_iso(rc, _read_json(rep), first, relabelled)

        apply_argv = ["polytope", "apply-plan", "--plan", str(plan_path), "--out", str(poly_path),
                      "--json", str(reports["apply"])]
        hvec_argv = ["polytope", "hvec", "--infile", str(poly_path), "--json", str(reports["hvec"])]
        iso_argv = ["polytope", "iso", "--first", str(poly_path), "--second", str(relabelled_path),
                    "--json", str(reports["iso"])]
        jobs += [
            Job(
                "apply",
                lambda argv=apply_argv: _cli(cobforge, argv),
                lambda rc, rep=reports["apply"], n=n, counts=counts, h=h:
                    checks.check_apply(rc, _read_json(rep), n, counts, h),
                (poly_path, reports["apply"]),
            ),
            Job("load", load, lambda p, n=n, h=h: checks.check_loaded(p.dim, len(p.vertices), n, h)),
            Job(
                "hvec",
                lambda argv=hvec_argv: _cli(cobforge, argv),
                lambda rc, rep=reports["hvec"], h=h: checks.check_hvec(rc, _read_json(rep), h),
                (reports["hvec"],),
            ),
            Job("iso", lambda argv=iso_argv: _cli(cobforge, argv), check_iso, (reports["iso"],)),
        ]
    return jobs


WORKLOADS = {
    "reproduce": setup_reproduce,
    "plan_sweep": setup_plan_sweep,
    "apply_plan": setup_apply_plan,
}
