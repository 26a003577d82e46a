import itertools
import json
import math
import random
import time
import tracemalloc

import pytest

from cobforge import polytope
from cobforge.cli import _plan_document, main
from cobforge.milnor import s_kn
from cobforge.planner import ModificationPlan
from cobforge.polytope import (
    SimplePolytope,
    apply_plan,
    comb_iso,
    cut_face,
    cut_vertex,
    f_vector,
    face,
    from_dict,
    h_vector,
    plan_base,
    plan_vertex_count,
    product,
    rigidity_demo,
    simplex,
    to_dict,
    verify_complementary_equiv,
)


def cube(d):
    p = simplex(1)
    for _ in range(d - 1):
        p = product(p, simplex(1))
    return p


def toy_plan(n, counts):
    counts = tuple(counts)
    predicted = (n + 1) + sum(c * s_kn(n, k) for k, c in enumerate(counts))
    return ModificationPlan(
        n=n,
        a=1,
        base_milnor=n + 1,
        counts=counts,
        predicted_milnor=predicted,
    )


# --------------------------------------------------------------- constructors


def test_simplex_basic():
    s = simplex(3)
    assert s.facet_count == 4 and len(s.vertices) == 4
    seg = simplex(1)
    assert seg.facet_count == 2 and len(seg.vertices) == 2
    assert f_vector(s) == (4, 6, 4, 1)
    with pytest.raises(ValueError):
        simplex(0)


def test_product_counts():
    square = product(simplex(1), simplex(1))
    assert square.facet_count == 4 and len(square.vertices) == 4
    base = plan_base(4)
    assert base == product(square, simplex(2))
    assert base.facet_count == 7 and len(base.vertices) == 12
    assert f_vector(cube(3)) == (8, 12, 6, 1)


# one fault per document, so each names exactly one rule
BAD_POLYTOPES = [
    ((0, 3, []), "dimension must be >= 1"),
    ((3, 3, []), "an n-polytope needs at least n\\+1 facets"),
    ((2, 3, [[0, 1, 2], [0, 1], [1, 2], [2, 0]]), "each vertex must lie on exactly dim distinct"),
    ((2, 3, [[0, 1], [1, 2], [2, 2]]), "each vertex must lie on exactly dim distinct"),
    ((2, 3, [[0, 1], [1, 2], [2, 3], [3, 0]]), "facet index out of range"),  # a square
    ((2, 3, [[0, 1], [1, 2], [2, -1], [-1, 0]]), "facet index out of range"),
    ((2, 3, [[0, 1], [0, 1], [1, 2], [2, 0]]), "duplicate vertex"),
    ((2, 4, [[0, 1], [1, 2], [2, 0]]), "facet without any vertex"),
    ((2, 3, []), "facet without any vertex"),
    ((2, 3, [[0, 1], [0, 2]]), "ridge contained in 1 vertices, expected 2"),  # open edge figure
    # the dual of the 7-vertex torus: every ridge in two vertices, but V - E + F = 0
    (
        (3, 7, [[i, (i + j) % 7, (i + 3) % 7] for j in (1, 2) for i in range(7)]),
        "Euler's relation",
    ),
    # the integer rule comes first, before any sort
    ((3.9, 4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]), "dim and facets must be integers"),
    ((2, 3.0, [[0, 1], [1, 2], [2, 0]]), "dim and facets must be integers"),
    ((True, 2, [[0], [1]]), "dim and facets must be integers"),
    ((2, 3, [[0, 1.0], [1, 2], [2, 0]]), "facet indices must be integers"),
    ((2, 3, [[0, True], [1, 2], [2, 0]]), "facet indices must be integers"),
    ((2, 3, [[0, 1], [1, "2"], [2, 0]]), "facet indices must be integers"),
]

BAD_DOCUMENTS = [
    ("[3, 4]", "polytope document must be a JSON object"),
    ('{"dim": 3, "vertices": []}', "polytope document missing field 'facets'"),
    ('{"dim": 3.0, "facets": 4, "vertices": []}', "dim and facets must be integers"),
    ('{"dim": 2, "facets": 3, "vertices": 5}', "vertices must be a list of lists"),
    ('{"dim": 2, "facets": 3, "vertices": [[0, 1], "12", [2, 0]]}', "vertices must be a list"),
    ('{"dim": 2, "facets": 3, "vertices": [0, 1, 2]}', "vertices must be a list"),
    ('{"dim": 2, "facets": 3, "vertices": [[0, true], [1, 2], [2, 0]]}', "facet indices must be"),
    ('{"dim": 2, "facets": 3, "vertices": [[0, 1], [1, "2"], [2, 0]]}', "facet indices must be"),
    ('{"dim": 2, "facets": 3, "vertices": [[0, 1], [1, 2.0], [2, 0]]}', "facet indices must be"),
]


def test_validation_rejects_bad_data():
    for args, message in BAD_POLYTOPES:
        with pytest.raises(ValueError, match=message):
            SimplePolytope(*args)
        # a document of the right shape reaches the same validator
        dim, facets, vertices = args
        with pytest.raises(ValueError, match=message):
            from_dict({"dim": dim, "facets": facets, "vertices": vertices})
    for text, message in BAD_DOCUMENTS:
        with pytest.raises(ValueError, match=message):
            from_dict(json.loads(text))


def test_bad_documents_exit_one_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    texts = [text for text, _ in BAD_DOCUMENTS] + [
        json.dumps({"dim": dim, "facets": facets, "vertices": vertices})
        for (dim, facets, vertices), _ in BAD_POLYTOPES
    ]
    for text in texts:
        path.write_text(text, encoding="utf-8")
        assert main(["polytope", "hvec", "--infile", str(path)]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)


def canonical_form(p):
    return all(type(f) is int for v in p.vertices for f in v) and all(
        type(v) is tuple and list(v) == sorted(v) for v in p.vertices
    )


def test_vertices_are_the_sorted_integer_tuples_to_dict_writes():
    base = plan_base(4)
    doc = to_dict(cut_vertex(base, 3))
    rng = random.Random(21)
    shuffled = [rng.sample(v, len(v)) for v in doc["vertices"]]
    rng.shuffle(shuffled)
    built = [
        simplex(3),
        base,
        cut_vertex(base, 3),
        cut_face(base, sorted(base.vertices[5])[:2]),
        apply_plan(toy_plan(5, (1, 0, 2, 1))),
        from_dict(dict(doc, vertices=shuffled)),
    ]
    for p in built:
        assert canonical_form(p), p
        assert p.vertices == tuple(map(tuple, to_dict(p)["vertices"])), p
        assert list(p.vertices) == sorted(p.vertices), p
    # equal inputs in another order give equal polytopes with equal hashes
    loaded = built[-1]
    assert loaded == built[2] and hash(loaded) == hash(built[2])
    backwards = SimplePolytope(base.dim, base.facet_count, [v[::-1] for v in base.vertices[::-1]])
    assert backwards == base and hash(backwards) == hash(base)


def test_internal_constructions_check_no_integer_twice(monkeypatch):
    # simplex, product and _Incidence build from a checked int or validated
    # polytopes and hand over sorted int tuples; only the public constructor
    # checks the integer rule
    base, segment = plan_base(5), simplex(1)
    incidence = polytope._Incidence(base)
    incidence.modify(base.vertices[0], 1, 0)
    calls = []
    check = polytope._require_ints

    def counted(values, message):
        calls.append(message)
        check(values, message)

    monkeypatch.setattr(polytope, "_require_ints", counted)
    cut, prism = incidence.polytope(), product(base, segment)
    assert calls == []
    # the three simplex factors of the base are built from the plan's checked n
    simplices = [simplex(1), simplex(3)]
    apply_plan(toy_plan(5, (1, 2, 0, 1)))
    assert calls == ["simplex dimension must be an integer"] * 2
    monkeypatch.undo()
    for p in (cut, prism, *simplices):
        assert canonical_form(p) and p == SimplePolytope(p.dim, p.facet_count, p.vertices)
    # the private path still validates in full
    with pytest.raises(ValueError, match="ridge contained in 1 vertices"):
        SimplePolytope._canonical(2, 3, [(0, 1), (0, 2)])


def test_face_lookup():
    s = simplex(3)
    f = face(s, [0, 1])
    assert f.defining_facets == {0, 1} and len(f.vertex_set) == 2
    with pytest.raises(ValueError):
        face(s, [])
    with pytest.raises(ValueError):
        face(cube(3), [0, 1])  # opposite facets of the square factor


def test_face_rule_refuses_a_repeated_facet():
    # the repeat was merged away: [0, 0, 1] named the codimension-2 face {0, 1}
    for route in (face, cut_face):
        with pytest.raises(ValueError, match=r"repeated facet index in \[0, 0, 1\]"):
            route(simplex(3), [0, 0, 1])


@pytest.mark.parametrize("facets", [[0.9, 1.2], [0, 1.0], [True, 2], ["0", "1"]])
def test_face_rule_refuses_non_integer_facets(facets):
    # no coercion: int() would read [0.9, 1.2] as facets {0, 1} and [True, 2] as {1, 2}
    for route in (face, cut_face):
        with pytest.raises(ValueError, match="facet indices must be integers"):
            route(simplex(3), facets)


def test_vertex_that_is_not_iterable_is_refused():
    with pytest.raises(ValueError, match="each vertex must be an iterable of facet indices"):
        SimplePolytope(2, 3, [5, 6])


# ---------------------------------------------------------------- truncations


def test_cut_vertex_counts_and_invariants():
    s = simplex(3)
    c = cut_vertex(s, 0)
    assert c.facet_count == 5 and len(c.vertices) == 6
    assert h_vector(c) == (1, 2, 2, 1)
    for n in range(2, 7):
        p = simplex(n)
        assert len(cut_vertex(p, 0).vertices) == len(p.vertices) + n - 1


def test_cut_vertex_bad_index():
    with pytest.raises(ValueError):
        cut_vertex(simplex(3), 9)
    with pytest.raises(ValueError):
        cut_vertex(simplex(1), 0)
    # True is not read as vertex 1, nor 1.0 as a tuple index
    for index in (1.0, True, "1"):
        with pytest.raises(ValueError, match="vertex index must be an integer"):
            cut_vertex(simplex(3), index)


def test_cut_face_figure_counts():
    s = simplex(3)
    q = cut_vertex(s, 0)
    g = s.facet_count
    gverts = [v for v in q.vertices if g in v]
    edge = set(gverts[1]).intersection(*gverts[2:])
    r = cut_face(q, edge)
    assert r.facet_count == 6 and len(r.vertices) == 8


def test_cut_face_full_codim_equals_cut_vertex():
    q = cut_vertex(simplex(4), 0)
    target = q.vertices[2]
    g = q.facet_count
    # the vertex is replaced by dim new vertices, each dropping one old facet
    expected = SimplePolytope(
        q.dim,
        g + 1,
        [w for w in q.vertices if w != target] + [set(target) - {f} | {g} for f in target],
    )
    assert cut_face(q, target) == cut_vertex(q, 2) == expected


def test_cut_face_vertex_count_delta():
    rng = random.Random(5)
    for _ in range(25):
        p = random_polytope(rng)
        v = p.vertices[rng.randrange(len(p.vertices))]
        c = rng.randrange(2, p.dim + 1)
        defining = frozenset(sorted(v)[:c])
        f = face(p, defining)
        r = cut_face(p, defining)
        assert len(r.vertices) == len(p.vertices) + len(f.vertex_set) * (c - 1)


def test_cut_face_guards():
    s = simplex(3)
    with pytest.raises(ValueError):
        cut_face(s, [0])  # codim 1
    with pytest.raises(ValueError):
        cut_face(cube(3), [0, 1])  # empty intersection


# ---------------------------------------------------------------- f/h vectors


def test_h_vector_pinned():
    for n in range(1, 7):
        assert h_vector(simplex(n)) == (1,) * (n + 1)
    assert h_vector(cut_vertex(simplex(3), 0)) == (1, 2, 2, 1)


def test_h_from_f_matches_binomial_sum():
    # h_i = sum_j f_j C(j, i) (-1)^(j-i), the expansion of sum_j f_j (t-1)^j
    rng = random.Random(25)
    for _ in range(500):
        fv = tuple(rng.randint(-(10**9), 10**9) for _ in range(rng.randint(1, 15)))
        expected = tuple(
            sum(fj * math.comb(j, i) * (-1) ** (j - i) for j, fj in enumerate(fv))
            for i in range(len(fv))
        )
        assert polytope.h_from_f(fv) == expected, fv


def test_f_vector_work_guard(monkeypatch):
    from cobforge import polytope as pt

    p = plan_base(6)
    monkeypatch.setattr(pt, "_FVECTOR_WORK_LIMIT", 1)
    with pytest.raises(ValueError):
        f_vector(p)


def random_polytope(rng):
    dims = rng.choice([[1, 1, 2], [2, 2], [3], [1, 3], [4], [1, 1, 1], [2, 3]])
    poly = simplex(dims[0])
    for d in dims[1:]:
        poly = product(poly, simplex(d))
    for _ in range(rng.randrange(3)):
        if rng.random() < 0.5:
            poly = cut_vertex(poly, rng.randrange(len(poly.vertices)))
        else:
            v = poly.vertices[rng.randrange(len(poly.vertices))]
            c = rng.randrange(2, poly.dim + 1)
            poly = cut_face(poly, frozenset(sorted(v)[:c]))
    return poly


def test_dehn_sommerville_randomized():
    rng = random.Random(777)
    for _ in range(200):
        p = random_polytope(rng)
        hv = h_vector(p)
        assert hv == hv[::-1], p
        assert sum(hv) == len(p.vertices)
        assert hv[0] == 1


def enumerated_f_vector(p):
    """Every codimension n..0 counted from the vertices' facet subsets."""
    return tuple(
        len(set(itertools.chain.from_iterable(itertools.combinations(v, c) for v in p.vertices)))
        for c in range(p.dim, -1, -1)
    )


def test_f_vector_matches_full_enumeration():
    # f_vector derives f_0, f_1, f_(n-1) and f_n from the validated rules
    rng = random.Random(24)
    polys = seeded_polytopes(41) + [random_polytope(rng) for _ in range(200)]
    polys += [simplex(n) for n in range(1, 7)]
    polys.append(cut_vertex(cut_vertex(simplex(2), 0), 0))  # a pentagon
    polys += [
        apply_plan(toy_plan(n, [rng.randrange(1, 4) for _ in range(n - 1)])) for n in range(4, 8)
    ]
    assert {p.dim for p in polys} == set(range(1, 8))
    for p in polys:
        assert f_vector(p) == enumerated_f_vector(p), p


# ----------------------------------------------------------------- iso search


def test_comb_iso_reflexive():
    for p in (simplex(4), cube(3), cut_vertex(simplex(3), 0)):
        assert comb_iso(p, p) is not None


def test_comb_iso_distinguishes():
    assert comb_iso(simplex(3), cube(3)) is None
    p1 = cut_vertex(simplex(3), 0)
    assert comb_iso(p1, simplex(3)) is None


def test_comb_iso_returns_none_when_the_search_runs_out(monkeypatch):
    # equal dim, facet and vertex counts, and (with one colour for every facet)
    # equal colour classes, so only the exhausted search can say no
    p, q = cube(3), cut_vertex(product(simplex(1), simplex(2)), 0)
    assert (p.dim, p.facet_count, len(p.vertices)) == (q.dim, q.facet_count, len(q.vertices))
    monkeypatch.setattr(polytope, "_stable_colours", lambda degree, adj: [0] * len(degree))
    assert comb_iso(p, q) is None


def test_comb_iso_symmetric_and_consistent():
    s = simplex(3)
    q = cut_vertex(s, 0)
    g = s.facet_count
    gverts = [v for v in q.vertices if g in v]
    p1 = cut_face(q, gverts[0])
    p2 = cut_face(q, set(gverts[1]).intersection(*gverts[2:]))
    iso = comb_iso(p1, p2)
    assert iso is not None
    assert comb_iso(p2, p1) is not None
    assert sorted(iso) == list(range(p1.facet_count))
    mapped = {tuple(sorted(iso[f] for f in v)) for v in p1.vertices}
    assert mapped == set(p2.vertices)
    assert f_vector(p1) == f_vector(p2)
    assert h_vector(p1) == h_vector(p2)


def test_comb_iso_nontrivial_relabeling():
    base = cube(3)
    perm = [3, 4, 0, 5, 1, 2]
    relabeled = SimplePolytope(
        base.dim, base.facet_count, [[perm[f] for f in v] for v in base.vertices]
    )
    iso = comb_iso(base, relabeled)
    assert iso is not None
    mapped = {tuple(sorted(iso[f] for f in v)) for v in base.vertices}
    assert mapped == set(relabeled.vertices)


def relabelled(p, rng):
    perm = list(range(p.facet_count))
    rng.shuffle(perm)
    return SimplePolytope(p.dim, p.facet_count, [[perm[f] for f in v] for v in p.vertices])


def carries_vertices(iso, p, q):
    if iso is None:
        return False
    return {tuple(sorted(iso[f] for f in v)) for v in p.vertices} == set(q.vertices)


def test_comb_iso_on_relabelled_cubes_within_bound():
    # the cube's facets are all alike, so only the reverse-adjacency counters
    # keep the search from backtracking far at larger d
    rng = random.Random(25)
    pairs = [(cube(d), relabelled(cube(d), rng)) for d in range(3, 9)]
    start = time.perf_counter()
    isos = [comb_iso(p, q) for p, q in pairs]
    assert time.perf_counter() - start < 1.0
    for iso, (p, q) in zip(isos, pairs):
        assert carries_vertices(iso, p, q), p


def round_based_labels(p):
    """Weisfeiler-Leman by rounds: re-sort every facet's neighbour labels until stable."""
    adj = [set() for _ in range(p.facet_count)]
    degree = [0] * p.facet_count
    for v in p.vertices:
        for a in v:
            degree[a] += 1
            adj[a].update(set(v) - {a})
    labels = degree
    for _ in range(p.facet_count):
        sigs = [(labels[i], tuple(sorted(labels[j] for j in adj[i]))) for i in range(p.facet_count)]
        compress = {s: t for t, s in enumerate(sorted(set(sigs)))}
        renamed = [compress[s] for s in sigs]
        if renamed == labels:
            break
        labels = renamed
    return labels


def degrees(p):
    return [len(face(p, [f]).vertex_set) for f in range(p.facet_count)]


def stable_colours(p):
    _, adj = polytope._facet_graph(p)
    return polytope._stable_colours(degrees(p), adj)


def partition(labels):
    classes = {}
    for i, c in enumerate(labels):
        classes.setdefault(c, set()).add(i)
    return sorted(map(sorted, classes.values()))


def seeded_polytopes(seed):
    rng = random.Random(seed)
    polys = [random_polytope(rng) for _ in range(40)]
    for n in range(3, 8):
        for _ in range(3):
            polys.append(apply_plan(toy_plan(n, [rng.randrange(3) for _ in range(n - 1)])))
    return polys


def test_stable_colours_match_round_based_oracle():
    polys = seeded_polytopes(41)
    for p in polys:
        assert partition(stable_colours(p)) == partition(round_based_labels(p)), p
    # not vacuous: the refinement splits past the degree classes somewhere
    assert any(len(partition(stable_colours(p))) > len(set(degrees(p))) for p in polys)


def test_colours_agree_under_found_bijection():
    rng = random.Random(43)
    for p in seeded_polytopes(43):
        q = relabelled(p, rng)
        iso = comb_iso(p, q)
        assert carries_vertices(iso, p, q)
        colours_p, colours_q = stable_colours(p), stable_colours(q)
        assert [colours_q[iso[f]] for f in range(p.facet_count)] == colours_p


def test_comb_iso_at_ten_thousand_facets(monkeypatch):
    # n = 3 with 5,000 modifications (10,000 cuts): 10,006 facets, past the
    # apply-plan vertex limit, so the limit is lifted for the construction
    monkeypatch.setattr(polytope, "_APPLY_PLAN_VERTEX_LIMIT", 10**6)
    rng = random.Random(47)
    first = rng.randrange(5001)
    p = apply_plan(toy_plan(3, (first, 5000 - first)))
    q = relabelled(p, rng)
    assert p.facet_count == 10_006
    start = time.perf_counter()
    iso = comb_iso(p, q)
    assert time.perf_counter() - start < 10.0
    assert carries_vertices(iso, p, q)


def incidence_graph(nx, p):
    g = nx.Graph()
    g.add_nodes_from((("facet", f) for f in range(p.facet_count)), side="facet")
    for vid, v in enumerate(p.vertices):
        g.add_node(("vertex", vid), side="vertex")
        g.add_edges_from((("vertex", vid), ("facet", f)) for f in v)
    return g


def networkx_isomorphic(p, q):
    nx = pytest.importorskip("networkx")
    return nx.is_isomorphic(
        incidence_graph(nx, p),
        incidence_graph(nx, q),
        node_match=lambda a, b: a["side"] == b["side"],
    )


def same_size_pairs():
    """The existing non-isomorphic pairs, and same-size pairs of random cut sequences."""
    base = plan_base(4)
    g = base.facet_count
    q = cut_vertex(base, 0)
    gverts = [v for v in q.vertices if g in v]
    vertex_face = set(gverts[0])
    pairs = [
        (simplex(3), cube(3)),
        (cut_vertex(simplex(3), 0), simplex(3)),
        (cut_face(q, vertex_face), cut_face(q, frozenset([g, min(vertex_face - {g})]))),
    ]
    rng = random.Random(53)
    by_size = {}
    for _ in range(300):
        p = random_polytope(rng)
        by_size.setdefault((p.dim, p.facet_count, len(p.vertices)), []).append(p)
    for same in by_size.values():
        pairs += zip(same, same[1:])
    return pairs


def test_comb_iso_agrees_with_networkx():
    rng = random.Random(59)
    for n in range(3, 8):
        for _ in range(2):
            p = apply_plan(toy_plan(n, [rng.randrange(4) for _ in range(n - 1)]))
            q = relabelled(p, rng)
            assert networkx_isomorphic(p, q)
            assert carries_vertices(comb_iso(p, q), p, q)
    verdicts = []
    for p, q in same_size_pairs():
        expected = networkx_isomorphic(p, q)
        assert (comb_iso(p, q) is not None) == expected, (p, q)
        verdicts.append(expected)
    # not vacuous: same-size pairs that are not isomorphic, and some that are
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 10


# --------------------------------------------------- complementary truncation


def test_complementary_equiv_other_vertices():
    p = plan_base(4)
    for v in (0, 3, len(p.vertices) - 1):
        assert verify_complementary_equiv(p, v, 1)


def test_complementary_equiv_checks_bijection_outside_search(monkeypatch):
    # the identity maps facets to facets but is no isomorphism of the two cuts
    monkeypatch.setattr(polytope, "_swap_new_facets", lambda p: tuple(range(p.facet_count + 2)))
    assert not verify_complementary_equiv(simplex(3), 0, 0)


def test_swap_witness_agrees_with_search():
    # every vertex and every k of the simplex and the plan base, n = 3..8:
    # the g <-> h swap carries the vertices, and the search finds a bijection too
    pairs = 0
    for n in range(3, 9):
        for base in (simplex(n), plan_base(n)):
            swap = polytope._swap_new_facets(base)
            for vid in range(len(base.vertices)):
                for k in range(n - 1):
                    first, last = polytope._complementary_cuts(base, vid, k)
                    assert polytope.carries_vertices(swap, first, last), (n, vid, k)
                    iso = comb_iso(first, last)
                    assert polytope.carries_vertices(iso, first, last), (n, vid, k)
                    pairs += 1
    assert pairs == 749


def test_complementary_equiv_rejects_the_same_face_twice(monkeypatch):
    # a modify that cuts side 0 on both sides builds one polytope twice; the
    # search finds the identity, so only a fixed witness can reject it
    modify = polytope._Incidence.modify

    def same_face(self, vertex, k, side):
        return modify(self, vertex, k, 0)

    monkeypatch.setattr(polytope._Incidence, "modify", same_face)
    pairs = 0
    for n in range(3, 7):
        for k in range(n - 1):
            assert not verify_complementary_equiv(simplex(n), 0, k), (n, k)
            first, last = polytope._complementary_cuts(simplex(n), 0, k)
            assert first == last
            assert polytope.carries_vertices(comb_iso(first, last), first, last)
            pairs += 1
    assert pairs == 14


def test_search_finds_the_swap_on_the_rigidity_pair():
    # the B_0 step on vertex 0 of the simplex, rigidity_demo's pair, at every n
    # it accepts: comb_iso returns exactly the swap that rigidity_demo reports
    for n in range(3, 20):
        p = simplex(n)
        first, last = polytope._complementary_cuts(p, 0, 0)
        assert comb_iso(first, last) == polytope._swap_new_facets(p), n


def test_modify_cuts_the_named_face_on_each_side():
    # After the vertex cut, side 0 is the face of the first k+1 fresh vertices
    # in canonical order and side 1 the face of the other n-k-1, both found
    # here by scanning the cut polytope for the fresh facet g.
    for n in range(3, 8):
        for base in (plan_base(n), simplex(n)):
            g = base.facet_count
            for vid in (0, len(base.vertices) // 2, len(base.vertices) - 1):
                q = cut_vertex(base, vid)
                fresh = [v for v in q.vertices if g in v]
                for k in range(n - 1):
                    first = set(fresh[0]).intersection(*fresh[1 : k + 1])
                    rest = set(fresh[k + 1]).intersection(*fresh[k + 2 :])
                    assert (len(first), len(rest)) == (n - k, k + 2)
                    for side, expected in enumerate((first, rest)):
                        incidence = polytope._Incidence(base)
                        vertex = base.vertices[vid]
                        added = incidence.modify(vertex, k, side)
                        assert incidence.polytope() == cut_face(q, expected), (n, vid, k, side)
                        # what modify returns is what its two cuts return
                        # (the face's vertices in the order the first cut returned them)
                        replay = polytope._Incidence(base)
                        before = set(replay.vertices)
                        first_cut = replay.cut(frozenset(vertex), (vertex,))
                        assert set(first_cut) == replay.vertices - before
                        before = set(replay.vertices)
                        on_face = [w for w in first_cut if expected.issubset(w)]
                        second_cut = replay.cut(frozenset(expected), on_face)
                        assert set(second_cut) == replay.vertices - before
                        assert added == first_cut + second_cut, (n, vid, k, side)


def test_non_complementary_faces_can_differ():
    # intersecting (non-complementary) faces of the fresh facet do not have
    # to give equivalent polytopes; this product-base instance breaks it
    base = plan_base(4)
    g = base.facet_count
    q = cut_vertex(base, 0)
    gverts = [v for v in q.vertices if g in v]
    vertex_face = set(gverts[0])
    p_vertex = cut_face(q, vertex_face)
    first_facet = min(vertex_face - {g})
    p_overlap = cut_face(q, frozenset([g, first_facet]))
    assert comb_iso(p_vertex, p_overlap) is None


# ------------------------------------------------------------------ plan play


def test_apply_plan_zero_counts():
    plan = toy_plan(4, (0, 0, 0))
    assert apply_plan(plan) == plan_base(4)


def test_apply_plan_single_point_modification():
    plan = toy_plan(4, (1, 0, 0))
    result = apply_plan(plan)
    assert len(result.vertices) == 12 + 3 + 3
    assert result.facet_count == 7 + 2


def test_apply_plan_preserves_invariants_and_symmetry():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice([4, 5])
        counts = tuple(rng.randrange(3) for _ in range(n - 1))
        result = apply_plan(toy_plan(n, counts))
        hv = h_vector(result)
        assert hv == hv[::-1]
        assert sum(hv) == len(result.vertices)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ones(lo, hi):
    """t^lo + ... + t^hi as a coefficient list."""
    return [0] * lo + [1] * (hi - lo + 1)


def h_vector_closed_form(n, counts):
    """(1+t)^2 (1+...+t^(n-2)) + sum_k counts[k] [(t+...+t^(n-1)) + (1+...+t^k)(t+...+t^(n-k-1))].

    The base I x I x (n-2)-simplex, then one vertex cut (codimension n) and
    one k-face cut (codimension n-k) per modification, each adding
    h_F(t)(t+...+t^(c-1)) for a face F of codimension c.
    """
    terms = [(1, _poly_mul(_poly_mul([1, 1], [1, 1]), _ones(0, n - 2)))]
    for k, count in enumerate(counts):
        terms.append((count, _ones(1, n - 1)))
        terms.append((count, _poly_mul(_ones(0, k), _ones(1, n - k - 1))))
    h = [0] * (n + 1)
    for count, poly in terms:
        for i, x in enumerate(poly):
            h[i] += count * x
    return tuple(h)


def test_apply_plan_h_vector_matches_closed_form():
    rng = random.Random(29)
    for n in range(3, 8):
        for _ in range(3):
            counts = tuple(rng.randrange(3) for _ in range(n - 1))
            result = apply_plan(toy_plan(n, counts))
            assert h_vector(result) == h_vector_closed_form(n, counts)
            assert len(result.vertices) == plan_vertex_count(n, counts)


def replay_apply_plan(plan):
    """The rebuild-per-cut replay: a fully validated SimplePolytope after every cut.

    Each modification cuts the first vertex, names the fresh simplex facet's
    vertices by a scan, and cuts the face of the first k+1 of them, all
    with the cut formula written out here.
    """

    def rebuild_cut(p, defining):
        defining = set(defining)
        on_face = [v for v in p.vertices if defining.issubset(v)]
        verts = [sorted(w) for w in p.vertices if not defining.issubset(w)]
        for v in on_face:
            verts += [sorted(set(v) - {drop} | {p.facet_count}) for drop in defining]
        return SimplePolytope(p.dim, p.facet_count + 1, verts)

    poly = plan_base(plan.n)
    for k, count in enumerate(plan.counts):
        for _ in range(count):
            g = poly.facet_count
            poly = rebuild_cut(poly, poly.vertices[0])
            fresh = [v for v in poly.vertices if g in v]
            poly = rebuild_cut(poly, set(fresh[0]).intersection(*fresh[1 : k + 1]))
    return poly


def test_apply_plan_matches_rebuild_per_cut_replay():
    rng = random.Random(41)
    for n in range(3, 8):
        only_first = [3] + [0] * (n - 2)
        only_last = [0] * (n - 2) + [3]
        mixed = [[rng.randrange(1, 4) for _ in range(n - 1)] for _ in range(3)]
        for counts in [only_first, only_last] + mixed:
            plan = toy_plan(n, counts)
            assert to_dict(apply_plan(plan)) == to_dict(replay_apply_plan(plan)), (n, counts)


def _duplicate(step):
    return lambda v, d, g: step(v, d, g) + step(v, d, g)[:1]


def _drop_one(step):
    return lambda v, d, g: step(v, d, g)[1:]


def _drop_all(step):
    return lambda v, d, g: []


def _collide(step):
    # (0, 1, 3) is a vertex of simplex(3) off the cut vertex (0, 1, 2); on
    # other polytopes every cut adds it, so the second cut collides
    return lambda v, d, g: step(v, d, g)[1:] + [(0, 1, 3)]


# every public route into _Incidence; apply_plan's toy plan makes six cuts
PUBLIC_CUT_PATHS = [
    lambda: cut_face(simplex(3), (0, 1, 2)),
    lambda: cut_vertex(simplex(3), 0),
    lambda: verify_complementary_equiv(simplex(3), 0, 0),
    lambda: rigidity_demo(3),
    lambda: apply_plan(toy_plan(4, (1, 1, 0))),
]


@pytest.mark.parametrize(
    "broken, message",
    [
        (_duplicate, "duplicate vertex"),
        (_collide, "duplicate vertex"),
        (_drop_one, "ridge contained in 1 vertices"),
        (_drop_all, "facet without any vertex"),
    ],
)
def test_each_cut_validates_what_it_changed(monkeypatch, tmp_path, capsys, broken, message):
    monkeypatch.setattr(polytope, "_replacements", broken(polytope._replacements))
    incidence = polytope._Incidence(simplex(3))
    vertex = (0, 1, 2)
    if message == "duplicate vertex":
        # the vertex set would swallow a duplicate, so the cut itself raises
        with pytest.raises(ValueError, match=message):
            incidence.cut(frozenset(vertex), (vertex,))
    else:
        # everything else is left to the one validator, SimplePolytope's
        incidence.cut(frozenset(vertex), (vertex,))
        with pytest.raises(ValueError, match=message):
            incidence.polytope()
    for path in PUBLIC_CUT_PATHS:
        with pytest.raises(ValueError, match=message):
            path()
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(_plan_document(toy_plan(4, (1, 1, 0)))), encoding="utf-8")
    capsys.readouterr()
    assert main(["polytope", "apply-plan", "--plan", str(plan_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def _faces(p):
    """Every face of codimension >= 2, as (defining facets, its vertices)."""
    defining = {
        frozenset(c)
        for v in p.vertices
        for r in range(2, p.dim + 1)
        for c in itertools.combinations(v, r)
    }
    return [(d, [v for v in p.vertices if d.issubset(v)]) for d in sorted(defining, key=sorted)]


def test_cut_missing_a_face_vertex_fails_validation():
    # the caller names the face's vertices; a hand-off that misses one leaves
    # that vertex uncut, and the one validator sees its ridges
    tried = 0
    for p in (simplex(3), plan_base(5), plan_base(6)):
        for defining, on_face in _faces(p):
            for missing in range(len(on_face)):
                incidence = polytope._Incidence(p)
                incidence.cut(defining, on_face[:missing] + on_face[missing + 1 :])
                if len(on_face) == 1:
                    # a vertex cut handed nothing leaves the new facet empty
                    with pytest.raises(ValueError, match="facet without any vertex"):
                        incidence.polytope()
                else:
                    with pytest.raises(ValueError, match="ridge contained in 1 vertices"):
                        incidence.polytope()
                tried += 1
    assert tried == 1572


@pytest.mark.parametrize("n, budget", [(3, 5.0), (32, 10.0), (100, 14.0)])
def test_apply_plan_at_vertex_limit_within_stated_bound(n, budget):
    # n = 3 makes the most cuts per vertex; n = 32 with k = n-2 was the
    # slowest plan measured at the limit among n <= 32; n = 100 is the worst
    # case check_plan_size allows (3.0-3.6 s and 457 MiB peak RSS, Python
    # 3.11, shared 2-vCPU host; the budget leaves over 2x for host drift)
    limit = polytope._APPLY_PLAN_VERTEX_LIMIT
    base = plan_vertex_count(n, [0] * (n - 1))
    per_modification = plan_vertex_count(n, [0] * (n - 2) + [1]) - base
    counts = [0] * (n - 2) + [(limit - base) // per_modification]
    start = time.perf_counter()
    result = apply_plan(toy_plan(n, counts))
    assert time.perf_counter() - start < budget
    assert len(result.vertices) == plan_vertex_count(n, counts)
    assert len(result.vertices) > limit - per_modification


def test_apply_plan_vertex_limit(monkeypatch):
    at_limit = toy_plan(4, (1, 0, 0))  # 18 vertices
    monkeypatch.setattr(polytope, "_APPLY_PLAN_VERTEX_LIMIT", plan_vertex_count(4, (1, 0, 0)))
    assert len(apply_plan(at_limit).vertices) == 18
    with pytest.raises(ValueError, match="past the apply-plan limit"):
        apply_plan(toy_plan(4, (0, 1, 0)))  # 19 vertices
    monkeypatch.undo()
    # the default limit (10,000) refuses this 10,004-vertex plan before any cut
    monkeypatch.setattr(polytope, "_plan_base", lambda n: pytest.fail("built the base"))
    assert plan_vertex_count(3, (2499, 0)) == 10_004
    with pytest.raises(ValueError, match="past the apply-plan limit"):
        apply_plan(toy_plan(3, (2499, 0)))


def test_apply_plan_refuses_past_n_100_before_any_cut(monkeypatch):
    # zero counts: the base alone, 4(n-1) vertices, is under the vertex limit
    monkeypatch.setattr(polytope, "_plan_base", lambda n: pytest.fail("built the base"))
    with pytest.raises(ValueError, match="past the apply-plan range n <= 100"):
        apply_plan(toy_plan(101, [0] * 100))


def test_apply_plan_dimension_mismatch():
    plan = toy_plan(4, (0, 0, 0))
    object.__setattr__(plan, "n", 5)  # corrupt the record deliberately
    with pytest.raises(ValueError):
        apply_plan(plan)


# ------------------------------------------------------------------- rigidity


@pytest.mark.parametrize("n", range(3, 7))
def test_rigidity_demo(monkeypatch, n):
    # the bijection comes from the cut rule, not from a search
    monkeypatch.setattr(polytope, "comb_iso", lambda p, q: pytest.fail("searched"))
    rep = rigidity_demo(n)
    assert rep.facet_bijection == (*range(n + 1), n + 2, n + 1)  # g <-> h
    assert rep.h_first == rep.h_last
    # the report's polytopes are the ones its bijection and h-vectors describe
    assert (h_vector(rep.first), h_vector(rep.last)) == (rep.h_first, rep.h_last)
    mapped = {tuple(sorted(rep.facet_bijection[f] for f in v)) for v in rep.first.vertices}
    assert mapped == set(rep.last.vertices)


def test_rigidity_demo_refuses_past_work_limit(monkeypatch):
    # both polytopes have 3n-1 vertices, so the default limit allows n <= 19
    limit = polytope._FVECTOR_WORK_LIMIT
    assert (3 * 19 - 1) << 19 <= limit < (3 * 20 - 1) << 20
    monkeypatch.setattr(polytope, "_FVECTOR_WORK_LIMIT", (3 * 5 - 1) << 5)
    rep = rigidity_demo(5)
    assert rep.h_first == rep.h_last
    monkeypatch.setattr(polytope, "_Incidence", None)  # refused before any cut
    with pytest.raises(ValueError, match="past the limit"):
        rigidity_demo(6)


def test_rigidity_demo_refuses_a_non_integer_n():
    # 4.0 reached the f-vector work check and raised TypeError from <<
    with pytest.raises(ValueError, match="rigidity dimension must be an integer"):
        rigidity_demo(4.0)


def test_carries_vertices_refuses_a_short_mapping():
    # a mapping shorter than the facet count raised IndexError
    assert not polytope.carries_vertices((0, 1), simplex(3), simplex(3))


def test_rigidity_demo_refuses_huge_n_without_building_its_work_count():
    # vertices << n would be a 10^9-bit number (127 MiB), built only to be refused
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="past the limit"):
            rigidity_demo(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rigidity_pinned_deltas(tmp_path, capsys):
    # the Milnor-number changes come from the tables, in the CLI's report
    for n, deltas in ((3, ("-4", "-2")), (4, ("-10", "-20"))):
        out = tmp_path / f"rig{n}.json"
        assert main(["polytope", "rigidity", "--n", str(n), "--json", str(out)]) == 0
        outputs = json.loads(out.read_text(encoding="utf-8"))["outputs"]
        assert (outputs["delta_point"], outputs["delta_top"]) == deltas


# ----------------------------------------------------------------------- json


def test_json_roundtrip_canonical():
    p = cut_vertex(plan_base(4), 0)
    doc = to_dict(p)
    assert doc["vertices"] == sorted(doc["vertices"])
    assert from_dict(doc) == p
    with pytest.raises(ValueError):
        from_dict({"dim": 3, "vertices": []})


@pytest.mark.parametrize("n", [2.0, "3", None, True])
@pytest.mark.parametrize("build", [simplex, plan_base])
def test_simplex_and_plan_base_refuse_non_integers(build, n):
    # without the check 2.0 raised TypeError from range, "3" and None from <
    # (or from - in plan_base), and plan_base(True) refused a (-1)-simplex
    with pytest.raises(ValueError, match="dimension must be an integer"):
        build(n)
