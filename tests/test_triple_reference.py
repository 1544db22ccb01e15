"""Differential tests of the Triple Multicut guess section against a reference.

The reference is the earlier form of `_quotient_classes`, `_alpha_partitions`
and the guess loop of `triple_multicut`, kept here as it was.  It walks every
subset of the triples and skips those over budget, finds each guessed
vertex's undeletable reach with one `reachable` search per vertex, widens it
by its neighbours to join classes, and lists each alpha's vertices in an
order grouped by undeletable reach (`order`).  The solver now reads the
classes off one labelling of the undeletable components and walks only the
triple sets the budget can pay for, and finishes each alpha with
`multiway_cut` instead of the Boolean encoding.  The classes must equal the
reference's.  The answer must have the reference's verdict, deleted
triples and number of deleted vertices; the deleted vertices themselves
may be another minimum cut, so every accepted answer is checked feasible
within the budget.  The reference's alpha walk has no flow bound, so the
answer test also checks that the solver's bound on partial alphas drops
no alpha that could change the answer.
"""

import itertools
import random

from eqcut.cutgraph import (
    CutGraph,
    TripleSet,
    component_labels,
    reachable,
    triple_multicut_feasible,
)
from eqcut.instances import subsets
from eqcut.relations import union_classes
from eqcut import triple_multicut as tm
from eqcut.triple_multicut import (
    _guess_ties,
    _quotient_classes,
    boolean_solve,
    build_boolean_instance,
    decode_boolean_solution,
    triple_multicut,
)


def ref_quotient_classes(g, xs):
    xs = list(dict.fromkeys(xs))
    undel_reach = {}
    for v in xs:
        blocked = [u for u in g.vertices if g.deletable(u) and u != v]
        undel_reach[v] = reachable(g, [v], blocked)
    tied = [(a, b) for a, b in itertools.combinations(xs, 2)
            if b in undel_reach[a]]
    order = ref_classes(xs, union_classes(xs, tied))
    idx = g._index
    near = {v: undel_reach[v].union(idx.names[j] for u in undel_reach[v]
                                    for j in idx.nbrs[idx.pos[u]])
            for v in xs}
    joined = [(a, b) for a, b in itertools.combinations(xs, 2) if b in near[a]]
    classes = ref_classes(xs, union_classes(xs, joined))
    return classes, [v for cls in order for v in cls]


def ref_classes(xs, root):
    out = {}
    for v in xs:
        out.setdefault(root[v], []).append(v)
    return list(out.values())


def ref_alpha_partitions(g, classes, protected, order):
    label = component_labels(g, ())
    class_comp = []
    for cls in classes:
        comps = {label(v) for v in cls}
        if len(comps) > 1:
            return
        class_comp.append(comps.pop())
    conflict = set()
    class_of_vertex = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            class_of_vertex[v] = ci
    for tri in protected:
        members = [class_of_vertex[v] for v in tri if v in class_of_vertex]
        if len(members) != len(set(members)):
            return
        for a, b in itertools.combinations(members, 2):
            conflict.add(frozenset({a, b}))

    n = len(classes)

    def rec(i, groups):
        if i == n:
            label = {}
            for gi, grp in enumerate(groups, start=1):
                for ci in grp:
                    for v in classes[ci]:
                        label[v] = gi
            yield {v: label[v] for v in sorted(order, key=label.__getitem__)}
            return
        for gi, grp in enumerate(groups):
            if class_comp[grp[0]] != class_comp[i]:
                continue
            if any(frozenset({i, other}) in conflict for other in grp):
                continue
            grp.append(i)
            yield from rec(i + 1, groups)
            grp.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


def ref_triple_multicut(g, triples, k):
    if k < 0:
        return False, frozenset(), frozenset()
    if triple_multicut_feasible(g, triples, (), ()):
        return True, frozenset(), frozenset()
    if k == 0:
        return False, frozenset(), frozenset()
    tri_mult = dict(triples)
    tri_keys = sorted(tri_mult, key=sorted)
    for w_t in subsets(tri_keys):
        spent_t = sum(tri_mult[t] for t in w_t)
        if spent_t > k:
            continue
        live = TripleSet(tuple((t, m) for t, m in triples if t not in set(w_t)))
        protected = [t for t, _m in live]
        x_verts = [v for t in protected for v in sorted(t)]
        x_verts = [v for v in dict.fromkeys(x_verts) if g.deletable(v)]
        for w_v in subsets(x_verts, k - spent_t):
            spent = spent_t + len(w_v)
            g1 = g.without(w_v)
            rem_x = [v for t in protected for v in sorted(t)
                     if v not in set(w_v)]
            rem_x = list(dict.fromkeys(rem_x))
            classes, order = ref_quotient_classes(g1, rem_x)
            for alpha in ref_alpha_partitions(g1, classes, protected, order):
                try:
                    binst = build_boolean_instance(g1, live, alpha, k - spent,
                                                   protected)
                    removed = boolean_solve(binst)
                except ValueError:
                    continue
                if removed is None:
                    continue
                z_v, z_t = decode_boolean_solution(removed)
                z_v_full = z_v | set(w_v)
                z_t_full = z_t | set(w_t)
                if triple_multicut_feasible(g, triples, z_v_full, z_t_full):
                    cost = len(z_v_full) + sum(tri_mult[t] for t in z_t_full)
                    if cost <= k:
                        return True, frozenset(z_v_full), frozenset(z_t_full)
    return False, frozenset(), frozenset()


def random_graph(rng, n, density, undeletable_share):
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2)
             if rng.random() < density]
    undel = [v for v in vs if rng.random() < undeletable_share]
    return CutGraph.build(vs, edges, undeletable=undel)


def test_quotient_classes_match_reference():
    rng = random.Random(20)
    for _ in range(10_000):
        g = random_graph(rng, rng.randint(3, 12), rng.choice([0.15, 0.3, 0.5]),
                         rng.choice([0.2, 0.5, 0.8]))
        xs = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        expected, _order = ref_quotient_classes(g, xs)
        assert _quotient_classes(_guess_ties(g, xs), xs) == expected, (g, xs)


def test_triple_multicut_matches_reference():
    rng = random.Random(200)
    for _ in range(3_000):
        n = rng.randint(5, 11)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.45]),
                         rng.uniform(0.2, 0.6))
        tris = [(tuple(rng.sample(g.vertices, 3)), rng.randint(1, 2))
                for _ in range(rng.randint(1, 5))]
        ts = TripleSet.of(*tris)
        k = rng.randint(0, 4)
        res = triple_multicut(g, ts, k)
        feasible, z_v, z_t = ref_triple_multicut(g, ts, k)
        assert (res.feasible, len(res.z_v), res.z_t) == (feasible, len(z_v), z_t), \
            (g, ts, k)
        if res.feasible:
            assert triple_multicut_feasible(g, ts, res.z_v, res.z_t)
            assert res.cost(ts) <= k


def test_only_affordable_triple_sets_are_walked(monkeypatch):
    # 14 triples that no vertex deletion can help: at k = 1 only the empty
    # set and the 14 single triples fit the budget
    vs = [f"v{i}" for i in range(10)]
    g = CutGraph.build(vs, itertools.combinations(vs, 2), undeletable=vs)
    ts = TripleSet.of(*itertools.islice(itertools.combinations(vs, 3), 14))
    walked = []

    def counting_subsets(items, max_size=None):
        for s in subsets(items, max_size):
            if items and isinstance(items[0], frozenset):
                walked.append(s)
            yield s

    monkeypatch.setattr(tm, "subsets", counting_subsets)
    assert not triple_multicut(g, ts, 1).feasible
    assert 0 < len(walked) <= 15
