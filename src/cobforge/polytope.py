"""Combinatorial simple polytopes via vertex-facet incidence.

A simple n-polytope is recorded purely combinatorially: each vertex is the
set of the n facets through it.  For simple polytopes this determines the
whole face lattice (a codimension-c face is a c-subset of facets with a
nonempty common vertex set), so vertex and face truncations, f- and
h-vectors, and combinatorial isomorphism all work on this data alone.
Geometric realizations are out of scope.

Vertex truncation (the face truncation of codimension n) models the blow-up
of a toric variety at a fixed point; truncating a k-face of the fresh simplex
facet models the follow-up blow-up along a k-dimensional invariant subspace
of the exceptional divisor; the two cuts are one B_k step
(``_Incidence.modify``).  ``apply_plan`` plays a whole modification plan on
``plan_base(n)``, the moment polytope of its base, and ``rigidity_demo``
builds the pair of modifications with combinatorially equivalent polytopes
but different Milnor-number changes (the CLI reads those from ``milnor``;
this module imports only ``arith``).  Both it and
``verify_complementary_equiv`` (any vertex and k) take that equivalence from
the cut rule: the swap of the step's two new facets, checked by
``carries_vertices``, with no ``comb_iso`` search.

All truncation goes through one private mutable incidence, ``_Incidence``,
a vertex set whose ``cut`` is handed the vertices of the face it cuts and
edits only those (the cut formula of Buchstaber & Panov, *Toric Topology*,
2015): ``cut_face`` names them with ``face``, and a B_k step's face cut
takes them from its vertex cut's output.  ``cut_face`` makes one cut and
``apply_plan`` all of a plan's cuts on one incidence; either way the result
is one ``SimplePolytope``, whose validator is the one full check of the
cuts, so ``apply_plan``'s time is linear in the final vertex count.  A
vertex has one format everywhere, its sorted facet tuple, and the validator
checks each rule in one C-level pass, so at large n the ridge count (n
tuples of n-1 facets per vertex) is most of the cost: about three quarters
of an n = 100 plan at the vertex limit.  Plans past 10,000 vertices or past
n = 100 are refused before any work (``check_plan_size``).
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .arith import _require_ints

if TYPE_CHECKING:  # pragma: no cover
    from .planner import ModificationPlan

# f-vector enumeration walks subsets of every vertex's facet set; polytopes
# whose V * 2^n subsets are past this many are refused (see f_vector).
_FVECTOR_WORK_LIMIT = 2**25

# apply_plan's cuts are local edits, so its time grows linearly in the final
# vertex count (times about n^2 for the one validation of the result's
# ridges); plans that would build more vertices than this, or past dimension
# _APPLY_PLAN_MAX_N, are refused.  At this limit n = 100, the worst case,
# took 3.0-3.6 s and 457 MiB (see apply_plan for the other n).
# These bounds cover every shipped plan: for n <= 100 ``planner.construct_plan``
# builds at most 2,710 vertices (n = 92).
_APPLY_PLAN_VERTEX_LIMIT = 10_000
_APPLY_PLAN_MAX_N = 100


class SimplePolytope:
    """Combinatorial simple polytope: dim, facet count, vertex-facet incidence.

    ``vertices`` is the one vertex format, the one ``to_dict`` writes: the
    sorted tuple of each vertex's ``int`` facet indices, the tuples in sorted
    order.  Construction refuses a non-``int`` (or ``bool``) dim, facet
    count or facet index before any sort, then validates simplicity,
    distinctness, that no facet is redundant, and that every ridge (an
    (n-1)-subset of some vertex's facets) lies in exactly two vertices, the
    edge condition of a polytope boundary, and, at dim 3, Euler's relation
    2 * facets == vertices + 4.  The module's own constructions (``simplex``,
    ``product`` and ``_Incidence.polytope``) hand over sorted ``int`` tuples by
    construction and take the private path ``_canonical``, which skips only
    the per-index integer check and the per-vertex sort; every polytope, on
    either path, is validated in full.
    """

    __slots__ = ("dim", "facet_count", "vertices")

    def __init__(self, dim: int, facet_count: int, vertices: Iterable[Iterable[int]]):
        _require_ints((dim, facet_count), "dim and facets must be integers")
        rows = list(vertices)
        try:
            _require_ints(itertools.chain.from_iterable(rows), "facet indices must be integers")
        except TypeError:
            raise ValueError("each vertex must be an iterable of facet indices") from None
        self.dim, self.facet_count = dim, facet_count
        self.vertices: tuple[tuple[int, ...], ...] = tuple(sorted(map(tuple, map(sorted, rows))))
        self._validate()

    @classmethod
    def _canonical(
        cls, dim: int, facet_count: int, vertices: Iterable[tuple[int, ...]]
    ) -> "SimplePolytope":
        """A polytope from ``int`` dim and facet count and sorted ``int`` vertex tuples.

        The vertex list is sorted and ``_validate`` runs in full.
        """
        p = cls.__new__(cls)
        p.dim, p.facet_count = dim, facet_count
        p.vertices = tuple(sorted(vertices))
        p._validate()
        return p

    def _validate(self) -> None:
        """Each rule is one pass over all vertices, in C; the rules run in a fixed order.

        The last, Euler's relation at dim 3 (V - E + F = 2, E = 3V/2), is O(1).
        """
        dim, ordered = self.dim, self.vertices
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.facet_count < dim + 1:
            raise ValueError("an n-polytope needs at least n+1 facets")
        # a tuple of dim facets whose set is shorter repeats a facet
        if not set(map(len, ordered)) | set(map(len, map(set, ordered))) <= {dim}:
            raise ValueError("each vertex must lie on exactly dim distinct facets")
        used = set(itertools.chain.from_iterable(ordered))
        if used and (min(used) < 0 or max(used) >= self.facet_count):
            raise ValueError("facet index out of range")
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate vertex")
        if len(used) != self.facet_count:
            raise ValueError("facet without any vertex")
        # the ridges through a vertex: drop one of its dim facets each
        per_vertex = map(itertools.combinations, ordered, itertools.repeat(dim - 1))
        ridges = Counter(itertools.chain.from_iterable(per_vertex))
        if not set(ridges.values()) <= {2}:
            bad = next(c for c in ridges.values() if c != 2)
            raise ValueError(f"ridge contained in {bad} vertices, expected 2")
        if dim == 3 and 2 * self.facet_count != len(ordered) + 4:
            raise ValueError("a 3-polytope needs 2 * facets == vertices + 4 (Euler's relation)")

    def vertex_tuples(self) -> list[list[int]]:
        return list(map(list, self.vertices))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplePolytope):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.facet_count == other.facet_count
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.facet_count, self.vertices))

    def __repr__(self) -> str:
        return (
            f"SimplePolytope(dim={self.dim}, facets={self.facet_count}, "
            f"vertices={len(self.vertices)})"
        )


@dataclass(frozen=True)
class Face:
    """A face of a simple polytope, named by its defining facet set.

    In a simple polytope a nonempty intersection of c facets has codimension
    exactly c; ``vertex_set`` lists the face's vertices as ``vertices`` does.
    """

    defining_facets: frozenset[int]
    vertex_set: tuple[tuple[int, ...], ...]


def face(p: SimplePolytope, defining_facets: Iterable[int]) -> Face:
    """The face cut out by the given facets; raises if the intersection is empty."""
    facets = tuple(defining_facets)
    _require_ints(facets, "facet indices must be integers")
    defining = frozenset(facets)
    if not defining:
        raise ValueError("a face needs at least one defining facet")
    # a repeat would name a face of lower codimension than was asked for
    if len(defining) != len(facets):
        raise ValueError(f"repeated facet index in {list(facets)}")
    if any(not 0 <= f < p.facet_count for f in defining):
        raise ValueError("facet index out of range")
    verts = tuple(v for v in p.vertices if defining.issubset(v))
    if not verts:
        raise ValueError("the given facets have empty intersection")
    return Face(defining_facets=defining, vertex_set=verts)


def simplex(n: int) -> SimplePolytope:
    """The n-simplex: n+1 facets, each vertex omitting exactly one."""
    _require_ints((n,), "simplex dimension must be an integer")
    return _simplex(n)


def _simplex(n: int) -> SimplePolytope:
    """``simplex`` on an ``int`` n; its vertex tuples are sorted ``int`` by construction."""
    if n < 1:
        raise ValueError("simplex dimension must be >= 1")
    verts = [tuple(f for f in range(n + 1) if f != skip) for skip in range(n + 1)]
    return SimplePolytope._canonical(n, n + 1, verts)


def product(p: SimplePolytope, q: SimplePolytope) -> SimplePolytope:
    """Product polytope: facets are the disjoint union, vertices are pairs."""
    shift = p.facet_count
    # u is sorted and each shifted facet of w exceeds every facet of u
    verts = [u + tuple(f + shift for f in w) for u in p.vertices for w in q.vertices]
    return SimplePolytope._canonical(p.dim + q.dim, p.facet_count + q.facet_count, verts)


def plan_base(n: int) -> SimplePolytope:
    """I x I x (n-2)-simplex, the moment polytope of ``chern.adjustable_base_spec(n, a)``."""
    _require_ints((n,), "plan dimension must be an integer")
    return _plan_base(n)


def _plan_base(n: int) -> SimplePolytope:
    """``plan_base`` on an ``int`` n, such as a ``ModificationPlan``'s checked n."""
    return product(product(_simplex(1), _simplex(1)), _simplex(n - 2))


def cut_vertex(p: SimplePolytope, vertex_index: int) -> SimplePolytope:
    """Truncate one vertex: ``cut_face`` on the vertex's full facet set.

    A new facet replaces the vertex by dim new vertices; the i-th lies on the
    new facet and on all old facets of the vertex except the i-th (in sorted
    order).  Dimension 1 is refused by ``cut_face``.
    """
    return cut_face(p, _vertex_at(p, vertex_index))


def _vertex_at(p: SimplePolytope, vertex_index: int) -> tuple[int, ...]:
    """The vertex's stored canonical tuple (its facets in increasing order)."""
    _require_ints((vertex_index,), "vertex index must be an integer")
    if not 0 <= vertex_index < len(p.vertices):
        raise ValueError(f"vertex index {vertex_index} out of range")
    return p.vertices[vertex_index]


def cut_face(p: SimplePolytope, defining_facets: Iterable[int]) -> SimplePolytope:
    """Truncate the face cut out by ``defining_facets`` (codimension c >= 2).

    Every vertex of the face, lying on the c defining facets plus n-c
    others, is replaced by c new vertices: the j-th keeps the n-c others,
    picks up the new facet, and drops the j-th defining facet.  With c = n
    this is exactly a vertex truncation.  The new facet is combinatorially
    the product of the face with a (c-1)-simplex.  ``face`` names the
    face's vertices and the result is validated in full as a
    ``SimplePolytope``.
    """
    return _cut_named_face(p, face(p, defining_facets))


def _cut_named_face(p: SimplePolytope, target: Face) -> SimplePolytope:
    """``cut_face`` on a face of ``p`` that ``face`` has already named."""
    if p.dim < 2:
        raise ValueError("face truncation needs dimension >= 2")
    if len(target.defining_facets) < 2:
        raise ValueError("face truncation needs codimension >= 2")
    incidence = _Incidence(p)
    incidence.cut(target.defining_facets, target.vertex_set)
    return incidence.polytope()


def _replacements(
    vertex: tuple[int, ...], defining: frozenset[int], g: int
) -> list[tuple[int, ...]]:
    """The c vertices that replace ``vertex`` when the face ``defining`` is cut by facet g.

    ``vertex`` is a sorted facet tuple and g exceeds every facet in it, so the
    replacements are sorted tuples too; they drop the defining facets in
    ``vertex``'s order.
    """
    return [vertex[:i] + vertex[i + 1 :] + (g,) for i, f in enumerate(vertex) if f in defining]


class _Incidence:
    """Mutable vertex-facet incidence of a simple polytope, for cut sequences.

    ``vertices`` is the set of vertex tuples.  ``cut`` is the only
    truncation code in this module: each caller hands it the vertices of the
    face it cuts, so a cut edits only those and costs time in the number of
    vertices it changes rather than in the size of the polytope.
    ``polytope()`` returns the result as a ``SimplePolytope``, whose
    validator is the one full check of every cut made.
    """

    def __init__(self, p: SimplePolytope):
        self.dim = p.dim
        self.facet_count = p.facet_count
        self.vertices = set(p.vertices)

    def cut(
        self, defining: frozenset[int], on_face: Sequence[tuple[int, ...]]
    ) -> list[tuple[int, ...]]:
        """Truncate the face ``defining`` whose vertices are ``on_face``; see ``cut_face``.

        The new facet gets index ``facet_count``, and the cut returns the
        vertices it added.  It checks only what the vertex set would hide
        from ``SimplePolytope``'s validator: the new vertices are distinct
        from each other and from every remaining vertex.  The caller names
        the face and its vertices; a wrong name is found once, when
        ``polytope()`` builds the result.  A cut that raises leaves the
        incidence unusable.
        """
        g = self.facet_count
        self.facet_count += 1
        self.vertices.difference_update(on_face)
        added = [w for vt in on_face for w in _replacements(vt, defining, g)]
        size = len(self.vertices)
        self.vertices.update(added)
        if len(self.vertices) != size + len(added):
            raise ValueError("duplicate vertex")
        return added

    def modify(self, vertex: tuple[int, ...], k: int, side: int) -> list[tuple[int, ...]]:
        """One B_k step: cut ``vertex``, then the k-face (side 0) or its complement (side 1).

        Both faces lie on the vertex cut's facet g, so their vertices are
        among that cut's own output.  In canonical order the fresh vertex
        that drops f_i from the sorted vertex (f_1 < ... < f_n) precedes the
        one that drops f_(i-1): where they first differ it has f_(i-1), the
        other f_i.  So the k-face spanned by the first k+1 drops f_n, ...,
        f_(n-k) and is vertex[:n-k-1] + (g,), and the face of the other
        n-k-1 is vertex[n-k-1:] + (g,).  Returns what both cuts added.
        """
        g = self.facet_count
        added = self.cut(frozenset(vertex), (vertex,))
        split = len(vertex) - k - 1
        defining = frozenset((vertex[:split] if side == 0 else vertex[split:]) + (g,))
        return added + self.cut(defining, [w for w in added if defining.issubset(w)])

    def polytope(self) -> SimplePolytope:
        """The result, validated in full; its vertices are canonical (see ``_replacements``)."""
        return SimplePolytope._canonical(self.dim, self.facet_count, self.vertices)


def _check_fvector_work(vertices: int, dim: int) -> None:
    """Refuse an f-vector enumeration of ``vertices`` * 2^``dim`` subsets past the limit."""
    # 2^dim alone is past the limit from its bit length on: no n-bit number is built
    if dim >= _FVECTOR_WORK_LIMIT.bit_length() or vertices << dim > _FVECTOR_WORK_LIMIT:
        raise ValueError(
            f"f-vector enumeration of {vertices} vertices * 2^{dim} facet "
            f"subsets is past the limit of 2^25 = {_FVECTOR_WORK_LIMIT} subsets"
        )


def f_vector(p: SimplePolytope) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_n), with f_n = 1 for the whole polytope.

    A codimension-c face is a c-subset of facets with a nonempty common
    vertex set, and every such subset occurs inside some vertex's facet set,
    so codimensions 2..n-2 are counted by enumerating the c-subsets of every
    vertex, one codimension's set at a time.  The other four entries follow
    from the rules ``SimplePolytope`` has validated: the V vertices are
    distinct (f_0 = V), each of a vertex's n edges lies in exactly two
    vertices (f_1 = V * n / 2), no facet lacks a vertex (f_(n-1) = facet
    count), and f_n = 1; so n = 2 gives (V, facets, 1), n = 1 gives (V, 1),
    and n <= 3 enumerates nothing.  That skips 2n + 2 of each vertex's 2^n
    subsets, most of them at small n and almost none at n = 14, so the
    V * 2^n bound of the full enumeration still applies: past 2^25 it raises
    ``ValueError`` first.  At n = 14 ``polytope hvec`` took 6.9-7.8 s and
    160 MiB peak RSS on an ``apply_plan`` polytope with 1,872 vertices
    (30.7M subsets), and 0.7 s and 29 MiB on the shipped plan's 188
    vertices (Python 3.11, shared 2-vCPU host).
    """
    n, verts = p.dim, p.vertices
    _check_fvector_work(len(verts), n)
    if n == 1:
        return (len(verts), 1)

    def faces(codim: int) -> int:
        per_vertex = map(itertools.combinations, verts, itertools.repeat(codim))
        return len(set(itertools.chain.from_iterable(per_vertex)))

    edges = () if n == 2 else (len(verts) * n // 2,)
    return (len(verts), *edges, *map(faces, range(n - 2, 1, -1)), p.facet_count, 1)


def h_vector(p: SimplePolytope) -> tuple[int, ...]:
    """The h-vector (h_0, ..., h_n): coefficients of sum_j f_j (t-1)^j.

    h_0 = h_n = 1, the entries are symmetric (Dehn-Sommerville), and they
    sum to the vertex count.
    """
    return h_from_f(f_vector(p))


def h_from_f(fv: tuple[int, ...]) -> tuple[int, ...]:
    """The h-vector of (f_0, ..., f_n): sum_j f_j (t-1)^j by Horner's rule, h <- h*(t-1) + f_j."""
    h: list[int] = []
    for fj in reversed(fv):
        h = [a - b for a, b in zip([0, *h], [*h, 0])]
        h[0] += fj
    return tuple(h)


def _facet_graph(p: SimplePolytope) -> tuple[list[list[int]], list[set[int]]]:
    """Each facet's vertex indices, and each facet's adjacent facets.

    In a simple polytope two facets meet exactly when they share a vertex, so
    a facet's neighbours are the union of its vertices' facet sets.
    """
    on_facet: list[list[int]] = [[] for _ in range(p.facet_count)]
    for vid, v in enumerate(p.vertices):
        for f in v:
            on_facet[f].append(vid)
    vertex = p.vertices.__getitem__
    adj = [set().union(*map(vertex, vids)) for vids in on_facet]
    for f, neighbours in enumerate(adj):
        neighbours.discard(f)
    return on_facet, adj


def _stable_colours(degree: list[int], adj: list[set[int]]) -> list[int]:
    """The coarsest equitable refinement of the ``degree`` colouring, named canonically.

    Colour refinement (one-dimensional Weisfeiler-Leman) with a splitter
    queue: popping colour s splits every class by the number of neighbours
    its members have in class s.  Only the touched facets are visited, and
    those in a singleton class are skipped, since a singleton cannot split.
    The part with no neighbour in s keeps the old colour (if the class has
    no such part, its largest part does, ties going to the smaller count),
    and every other part gets the next fresh colour, in order of its count.
    All parts are queued, except that the largest one is skipped when the
    old colour was already processed (Hopcroft's rule), so each facet is in
    O(log m) popped classes and the refinement costs O((m + E) log m) for m
    facets and E adjacent pairs (Berkholz, Bonsma & Grohe, ESA 2013).  Every
    choice depends on colours and counts, never on facet indices, so an
    isomorphism carries the colouring of one polytope onto the colouring of
    the other.
    """
    names = {d: c for c, d in enumerate(sorted(set(degree)))}
    colour = [names[d] for d in degree]
    members: list[set[int]] = [set() for _ in names]
    for i, c in enumerate(colour):
        members[c].add(i)
    queue = deque(range(len(members)))
    queued = [True] * len(members)
    while queue:
        s = queue.popleft()
        queued[s] = False
        counts = Counter(itertools.chain.from_iterable(map(adj.__getitem__, members[s])))
        touched: dict[int, dict[int, list[int]]] = defaultdict(dict)
        for w, k in counts.items():
            c = colour[w]
            if len(members[c]) > 1:  # a singleton class cannot split
                touched[c].setdefault(k, []).append(w)
        for c in sorted(touched):
            parts = touched[c]
            untouched = len(members[c]) - sum(map(len, parts.values()))
            if not untouched and len(parts) == 1:
                continue
            # Parts are named by their count (0 for the untouched part).  The
            # untouched part keeps colour c, else the largest touched part;
            # a processed colour need not be queued for its largest part.
            sizes = [(len(part), -k) for k, part in parts.items()]
            kept = 0 if untouched else -max(sizes)[1]
            skipped = -1 if queued[c] else -max(sizes + [(untouched, 0)])[1]
            for k in sorted(parts):
                if k == kept:
                    continue
                part = parts[k]
                fresh = len(members)
                members.append(set(part))
                members[c].difference_update(part)
                for w in part:
                    colour[w] = fresh
                queued.append(k != skipped)
                if k != skipped:
                    queue.append(fresh)
            if not queued[c] and kept != skipped:
                queued[c] = True
                queue.append(c)
    return colour


def comb_iso(p: SimplePolytope, q: SimplePolytope) -> Optional[tuple[int, ...]]:
    """A facet bijection carrying vertex sets of p onto vertex sets of q.

    For simple polytopes such a bijection is a combinatorial isomorphism,
    because the maximal facet intersections determine the face lattice.
    Returns the mapping (facet i of p goes to entry i) or None.

    Facets are first coloured by ``_stable_colours`` (from their vertex
    counts), in O((m + E) log m) for m facets and E adjacent facet pairs;
    p and q must have the same colour-class sizes, and facet i may only go
    to a facet of its colour.  The search then places p's facets in a
    connected order (rarest colour first, then along adjacency; each
    facet's rarity key is built once, before the order is drawn), with an
    explicit stack, so depth is not bounded by the recursion limit.  A
    facet is only tried on the neighbours of its lowest-numbered placed
    neighbour's image (a root, with none, on its colour class), and a
    candidate j for facet i is accepted in O(deg) when every placed
    neighbour of i maps into the neighbours of j and both have the same
    number of placed neighbours.  A vertex whose last facet is placed
    must map onto a vertex of q; an image changes only when a facet is
    unplaced, which reopens the vertex, so a complete mapping (injective,
    equal vertex counts) needs no final pass, and ``carries_vertices`` is
    the check outside the search.  Simple-polytope isomorphism is as hard as
    graph isomorphism (Kaibel & Schwartz 2003), so the search is exact and
    its worst case is exponential in m; when the colouring is discrete it
    tries one candidate per facet.  A relabelled 10,006-facet polytope
    (n = 3) took 0.34-0.55 s (Python 3.11, shared 2-vCPU host).  Its caller
    is ``polytope iso``; ``verify_complementary_equiv`` and ``rigidity_demo``
    have an explicit bijection and run no search.
    """
    m = p.facet_count
    if p.dim != q.dim or m != q.facet_count or len(p.vertices) != len(q.vertices):
        return None
    on_facet_p, adj_p = _facet_graph(p)
    on_facet_q, adj_q = _facet_graph(q)
    colour_p = _stable_colours(list(map(len, on_facet_p)), adj_p)
    colour_q = _stable_colours(list(map(len, on_facet_q)), adj_q)
    class_size = Counter(colour_q)
    if Counter(colour_p) != class_size:
        return None

    # Placement order: each facet after the first of its component is
    # reached from an already placed neighbour.  Facet i's rarity key is
    # (class size, -degree, i), built once for all facets.
    rarity = list(
        zip(map(class_size.__getitem__, colour_p), map(operator.neg, map(len, adj_p)), range(m))
    )
    order: list[int] = []
    position = [-1] * m
    for start in sorted(rarity):
        frontier = [start]
        while frontier:
            _, _, i = heapq.heappop(frontier)
            if position[i] >= 0:
                continue
            position[i] = len(order)
            order.append(i)
            for u in adj_p[i]:
                if position[u] < 0:
                    heapq.heappush(frontier, rarity[u])
    placed_before = [[u for u in adj_p[i] if position[u] < pos] for pos, i in enumerate(order)]

    p_verts = p.vertices
    q_vertex_set = set(q.vertices)
    pending = [p.dim] * len(p_verts)
    mapping = [-1] * m
    image = mapping.__getitem__
    used = [False] * m
    placed_q = [0] * m  # how many of j's neighbours in q are already images

    def unplace(i: int) -> None:
        j = mapping[i]
        for vid in on_facet_p[i]:
            pending[vid] += 1
        for w in adj_q[j]:
            placed_q[w] -= 1
        used[j] = False
        mapping[i] = -1

    def place(i: int, j: int) -> bool:
        mapping[i] = j
        used[j] = True
        for w in adj_q[j]:
            placed_q[w] += 1
        done = []
        for vid in on_facet_p[i]:
            pending[vid] -= 1
            if not pending[vid]:
                done.append(vid)
        if all(tuple(sorted(map(image, p_verts[vid]))) in q_vertex_set for vid in done):
            return True
        unplace(i)
        return False

    neighbours_by_colour: dict[int, dict[int, list[int]]] = {}

    def candidates(pos: int) -> list[int]:
        c, before = colour_p[order[pos]], placed_before[pos]
        if not before:
            return [j for j, cj in enumerate(colour_q) if cj == c]
        j = mapping[min(before)]
        if j not in neighbours_by_colour:
            groups = neighbours_by_colour[j] = defaultdict(list)
            for w in adj_q[j]:
                groups[colour_q[w]].append(w)
        return neighbours_by_colour[j].get(c, [])

    tries: list[Iterator[int]] = [iter(())] * m
    tries[0] = iter(candidates(0))
    pos = 0
    while True:
        i, before = order[pos], placed_before[pos]
        for j in tries[pos]:
            if (
                not used[j]
                and placed_q[j] == len(before)
                and all(mapping[u] in adj_q[j] for u in before)
                and place(i, j)
            ):
                break
        else:
            if pos == 0:
                return None
            pos -= 1
            unplace(order[pos])
            continue
        pos += 1
        if pos == m:
            return tuple(mapping)
        tries[pos] = iter(candidates(pos))


def carries_vertices(
    mapping: Optional[tuple[int, ...]], p: SimplePolytope, q: SimplePolytope
) -> bool:
    """Checked outside the isomorphism search: ``mapping`` carries p's vertices onto q's."""
    return (
        mapping is not None
        and len(mapping) == p.facet_count
        and len(p.vertices) == len(q.vertices)
        and {tuple(sorted(map(mapping.__getitem__, v))) for v in p.vertices} == set(q.vertices)
    )


def _complementary_cuts(
    p: SimplePolytope, vertex_index: int, k: int
) -> tuple[SimplePolytope, SimplePolytope]:
    """Both sides of the B_k step ``_Incidence.modify`` on a vertex of p: both polytopes."""
    vertex = _vertex_at(p, vertex_index)

    def modified(side: int) -> SimplePolytope:
        incidence = _Incidence(p)
        incidence.modify(vertex, k, side)
        return incidence.polytope()

    return modified(0), modified(1)


def _swap_new_facets(p: SimplePolytope) -> tuple[int, ...]:
    """The facet bijection of ``verify_complementary_equiv``: g <-> h, else the identity.

    g = ``p.facet_count`` is the facet of a B_k step's vertex cut on p and
    h = g + 1 the facet of its face cut.
    """
    g = p.facet_count
    return tuple(range(g)) + (g + 1, g)


def verify_complementary_equiv(p: SimplePolytope, vertex_index: int, k: int) -> bool:
    """Truncating complementary faces of the fresh facet gives equivalent polytopes.

    Cut the chosen vertex; on the new simplex facet take the face spanned by
    its first k+1 vertices and the complementary face spanned by the
    remaining n-k-1, both read off the cut vertex by ``_Incidence.modify``.
    Truncating either gives combinatorially isomorphic polytopes, by an
    explicit bijection (``_swap_new_facets``): the identity on p's facets
    with the vertex cut's facet g and the face cut's facet h = g + 1
    exchanged.  This builds both polytopes and checks that bijection with
    ``carries_vertices``, in O(V * n) for V vertices; no search is run.

    Proof.  Write the cut vertex v = (f_1 < ... < f_n), s = n - k - 1 and
    tau_i = v - {f_i} + {g}, the n vertices on g after the vertex cut.  Side
    0 cuts the face {f_1, ..., f_s, g}, whose vertices are the tau_i with
    i > s; it replaces each by v - {f_i, f_j} + {g, h} for every j <= s,
    plus v - {f_i} + {h}.  Side 1 cuts {f_(s+1), ..., f_n, g} and replaces
    each tau_i with i <= s by the same pairs, the roles of i and j
    exchanged, plus v - {f_i} + {h}.  Both sides keep every vertex of p
    but v.  Swapping g and h fixes those and the pairs (each has both g and
    h), and carries side 0's kept tau_i (i <= s) and new v - {f_i} + {h}
    (i > s) onto side 1's new v - {f_i} + {h} (i <= s) and kept tau_i
    (i > s).  Since 1 <= s <= n - 1, the swap carries neither side onto
    itself, so the check fails if both sides cut the same face.
    """
    _require_ints((k,), "k must be an integer")
    if not 0 <= k <= p.dim - 2:
        raise ValueError(f"k must satisfy 0 <= k <= n-2, got {k}")
    first, last = _complementary_cuts(p, vertex_index, k)
    return carries_vertices(_swap_new_facets(p), first, last)


def plan_vertex_count(n: int, counts: Iterable[int]) -> int:
    """Closed-form vertex count of the polytope ``apply_plan`` builds.

    The base I x I x (n-2)-simplex has 4(n-1) vertices, and each type-k
    modification adds ``_step_vertex_count(n, k)``.
    """
    return 4 * (n - 1) + sum(
        count * _step_vertex_count(n, k) for k, count in enumerate(counts)
    )


def _step_vertex_count(n: int, k: int) -> int:
    """Vertices one type-k modification adds; ``planner.construct_plan``'s edge cost.

    It cuts a vertex (n-1 new vertices) and then a k-simplex face of
    codimension n-k ((k+1)(n-k-1) new vertices).
    """
    return (n - 1) + (k + 1) * (n - k - 1)


def check_plan_size(plan: "ModificationPlan") -> None:
    """Refuse a plan ``apply_plan`` would not play within its stated bound.

    Refused, with ``ValueError``: n > 100, counts not covering k = 0..n-2,
    and plans whose closed-form vertex count (``plan_vertex_count``) exceeds
    10,000.  The work is O(n), so callers run it before any costly step:
    ``apply_plan`` before its first cut, ``polytope apply-plan`` before
    ``planner.verify_plan``, whose walk of the s_dkn row alone took 1.5 s at
    n = 20,000.  Without the n bound a zero-count n = 2,000 plan passes the
    vertex limit (7,996 vertices), and the ridges its validation counts are
    V * n = 1.6e7 tuples of n-1 facets; at n = 100 and the vertex limit that
    count is 9.9e5 tuples, and the whole ``apply_plan`` took 3.0-3.6 s.
    """
    n = plan.n
    if n > _APPLY_PLAN_MAX_N:
        raise ValueError(f"n = {n} is past the apply-plan range n <= {_APPLY_PLAN_MAX_N}")
    if len(plan.counts) != n - 1:
        raise ValueError("plan dimension mismatch: counts must cover k = 0..n-2")
    vertices = plan_vertex_count(n, plan.counts)
    if vertices > _APPLY_PLAN_VERTEX_LIMIT:
        raise ValueError(
            f"plan would build {vertices} vertices, past the apply-plan limit of "
            f"{_APPLY_PLAN_VERTEX_LIMIT}"
        )


def apply_plan(plan: "ModificationPlan") -> SimplePolytope:
    """Play a modification plan on the moment polytope of its base.

    The base is ``plan_base(n)``.  Each modification with parameter k cuts
    the polytope's first vertex (canonical order) and then the k-face of the
    fresh simplex facet spanned by its first k+1 vertices (side 0 of
    ``_Incidence.modify``); any deterministic choice policy yields the same
    Milnor-number bookkeeping, so this fixed one is used for reproducibility.

    The first vertex comes from a min-heap with lazy deletion: each step
    pushes the vertices its cuts added and pops those already cut away.  The
    cuts are local edits of one ``_Incidence``; the one ``SimplePolytope``
    built at the end validates them all.  The work is linear in the final
    vertex count V, with a factor of about n^2 for that validation's ridges
    (tuples of n-1 facets, n per vertex); each cut is handed its face's
    vertices, the vertex cut's by the heap and the face cut's by the vertex
    cut, so no cut searches the incidence.  ``check_plan_size`` refuses
    plans past n = 100 or past 10,000 vertices before any cut.  At the
    vertex limit an n = 3 plan (2,498 modifications) took 0.08-0.09 s and
    20 MiB peak RSS, and an n = 32 plan (159 modifications with k = n-2)
    took 0.48-0.70 s and 74 MiB; larger n costs more per vertex: 1.7-1.8 s
    and 209 MiB at n = 64, and 3.0-3.6 s and 457 MiB at n = 100, the worst
    case, about three quarters of it the ridge count (Python 3.11, shared
    2-vCPU host).
    """
    check_plan_size(plan)
    incidence = _Incidence(_plan_base(plan.n))
    heap = sorted(incidence.vertices)  # a sorted list is a min-heap
    for k, count in enumerate(plan.counts):
        for _ in range(count):
            while heap[0] not in incidence.vertices:
                heapq.heappop(heap)
            for w in incidence.modify(heap[0], k, 0):
                heapq.heappush(heap, w)
    return incidence.polytope()


@dataclass(frozen=True)
class RigidityReport:
    """Isomorphic polytopes from the extreme modifications of a simplex.

    ``first`` and ``last`` are the moment polytopes of the k = 0 and k = n-2
    modifications, and ``facet_bijection`` is their swap (``_swap_new_facets``).
    Their Milnor-number changes differ although the two polytopes are
    combinatorially equivalent, so no combinatorial invariant of the polytope
    can see the difference.  The report holds polytope facts only;
    ``polytope rigidity`` reads the two changes from ``milnor``.
    """

    first: SimplePolytope
    last: SimplePolytope
    facet_bijection: tuple[int, ...]
    h_first: tuple[int, ...]
    h_last: tuple[int, ...]


def rigidity_demo(n: int) -> RigidityReport:
    """Compare the k = 0 and k = n-2 modifications of the n-simplex.

    They are the two sides of one B_0 step on vertex 0, truncating
    complementary faces (a vertex and the opposite (n-2)-face) of the fresh
    facet, so their bijection is ``_swap_new_facets`` (proved in
    ``verify_complementary_equiv``; no search), and each h-vector is taken
    from its own polytope.  Both have 3n-1 vertices, so n with (3n-1) * 2^n
    past the f-vector limit (n >= 20) is refused before any cut; n = 19 took
    21-23 s and 175 MiB peak RSS (Python 3.11, shared 2-vCPU host).
    """
    _require_ints((n,), "rigidity dimension must be an integer")
    if n < 3:
        raise ValueError("rigidity demo needs n >= 3")
    _check_fvector_work(3 * n - 1, n)
    p = simplex(n)
    first, last = _complementary_cuts(p, 0, 0)
    return RigidityReport(first, last, _swap_new_facets(p), h_vector(first), h_vector(last))


def to_dict(p: SimplePolytope) -> dict:
    """Canonical JSON-ready form: sorted vertex tuples in sorted order."""
    return {"dim": p.dim, "facets": p.facet_count, "vertices": p.vertex_tuples()}


def from_dict(data: dict) -> SimplePolytope:
    """Inverse of ``to_dict``; a document of the wrong shape raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("polytope document must be a JSON object")
    try:
        dim, facets, vertices = data["dim"], data["facets"], data["vertices"]
    except KeyError as exc:
        raise ValueError(f"polytope document missing field {exc}") from exc
    if not isinstance(vertices, list) or not set(map(type, vertices)) <= {list}:
        raise ValueError("polytope document: vertices must be a list of lists")
    return SimplePolytope(dim, facets, vertices)
