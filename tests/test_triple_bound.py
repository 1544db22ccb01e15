"""The flow bound on Triple Multicut's component guesses (alphas), and the
multiway cut that finishes each alpha.

`_alpha_partitions` drops a partial partition as soon as one of its groups
cannot be cut from the others within the budget.  The reference below is
the same enumerator without that bound.  On every guess the solver makes,
the bounded stream must be the reference stream with some alphas left out,
in the same order, and each alpha left out must be one whose Boolean
encoding has no solution within the budget (or is crisp-unsatisfiable).
On every alpha of the reference stream, the Boolean encoding and
`multiway_cut` between the alpha's groups must agree: both fail, or both
succeed with a deletion set of the same weight and no deleted triple.
"""

import itertools
import random

from eqcut import triple_multicut as tm
from eqcut import verify
from eqcut.cutgraph import CutGraph, TripleSet, component_labels
from eqcut.instances import subsets
from eqcut.triple_multicut import (
    _alpha_partitions,
    _class_conflicts,
    _guess_ties,
    _quotient_classes,
    boolean_solve,
    build_boolean_instance,
    decode_boolean_solution,
    multiway_cut,
    triple_multicut,
)


def ref_alpha_partitions(g, classes, protected):
    label = component_labels(g, ())
    class_comp = [label(cls[0]) for cls in classes]
    class_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    conflict = set()
    for tri in protected:
        members = [class_of[v] for v in tri if v in class_of]
        if len(members) != len(set(members)):
            return
        for a, b in itertools.combinations(members, 2):
            conflict.add(frozenset({a, b}))

    n = len(classes)

    def rec(i, groups):
        if i == n:
            yield {v: gi for gi, grp in enumerate(groups, start=1)
                   for ci in grp for v in classes[ci]}
            return
        for grp in groups:
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


def guesses(g, triples, k):
    """(g1, live, protected, classes, conflict, budget) for every triple
    and vertex deletion guess `triple_multicut` makes, in its order."""
    tri_mult = dict(triples)
    for w_t in subsets(sorted(tri_mult, key=sorted), k):
        spent_t = sum(tri_mult[t] for t in w_t)
        if spent_t > k:
            continue
        live = TripleSet(tuple((t, m) for t, m in triples if t not in w_t))
        protected = [t for t, _m in live]
        x_all = list(dict.fromkeys(v for t in protected for v in sorted(t)))
        for w_v in subsets([v for v in x_all if g.deletable(v)], k - spent_t):
            g1 = g.without(w_v)
            kept = [v for v in x_all if v not in w_v]
            classes = _quotient_classes(_guess_ties(g1, kept), kept)
            yield (g1, live, protected, classes,
                   _class_conflicts(classes, protected),
                   k - spent_t - len(w_v))


def boolean_answer(g1, live, alpha, budget, protected):
    """The encoding's minimum deletion set, or None when it has none within
    the budget or is crisp-unsatisfiable."""
    try:
        return boolean_solve(build_boolean_instance(g1, live, alpha, budget,
                                                    protected))
    except ValueError:
        return None


def random_graph(rng, n, density, undeletable_share):
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2)
             if rng.random() < density]
    undel = [v for v in vs if rng.random() < undeletable_share]
    return CutGraph.build(vs, edges, undeletable=undel)


def instances():
    """2,500 seeded (graph, triples, k) cases."""
    rng = random.Random(21)
    for _ in range(2_500):
        g = random_graph(rng, rng.randint(5, 11), rng.choice([0.15, 0.3, 0.45]),
                         rng.uniform(0.2, 0.6))
        ts = TripleSet.of(*[(tuple(rng.sample(g.vertices, 3)), rng.randint(1, 2))
                            for _ in range(rng.randint(1, 5))])
        yield g, ts, rng.randint(0, 4)


def test_bound_drops_only_unsolvable_alphas_and_keeps_the_order():
    kept = dropped = 0
    for g, ts, k in instances():
        for g1, live, protected, classes, conflict, budget in guesses(g, ts, k):
            bounded = [] if conflict is None else [
                list(a.items())
                for a in _alpha_partitions(g1, classes, conflict, budget)]
            pos = 0
            for alpha in ref_alpha_partitions(g1, classes, protected):
                if pos < len(bounded) and bounded[pos] == list(alpha.items()):
                    pos += 1
                    kept += 1
                    continue
                dropped += 1
                assert boolean_answer(g1, live, alpha, budget,
                                      protected) is None, (g, ts, k, alpha)
            assert pos == len(bounded), (g, ts, k)
    assert kept > 0 and dropped > 1_000


def test_multiway_cut_answers_the_boolean_encoding():
    solved = failed = 0
    for g, ts, k in instances():
        for g1, live, protected, classes, _conflict, budget in guesses(g, ts, k):
            for alpha in ref_alpha_partitions(g1, classes, protected):
                groups = [[v for v, gi in alpha.items() if gi == i]
                          for i in sorted(set(alpha.values()))]
                cut = multiway_cut(g1, groups, budget)
                removed = boolean_answer(g1, live, alpha, budget, protected)
                assert (removed is None) == (cut is None), (g, ts, k, alpha)
                if cut is None:
                    failed += 1
                    continue
                solved += 1
                z_v, z_t = decode_boolean_solution(removed)
                assert z_t == frozenset() and len(z_v) == len(cut), \
                    (g, ts, k, alpha)
                # the encoding's deletions avoid the guessed vertices and
                # cut the groups apart too
                assert multiway_cut(g1.without(z_v), groups, 0) == frozenset()
    assert solved > 1_000 and failed > 1_000


def test_probe_case_finishes_almost_no_alphas(monkeypatch):
    # a sparse random graph with 4 triples at k = 2; without the bound 365
    # alphas reach the leaf, and none of them has a cut within the budget
    n, s = 16, 1
    rng = random.Random(1000 * n + s)
    g = verify.random_graph(rng, n, 3 / n)
    vs = sorted(g.vertices)
    tris = []
    while len(tris) < 4:
        t = frozenset(rng.sample(vs, 3))
        if t not in tris:
            tris.append(t)
    leaves = []

    def counting_cut(*args):
        leaves.append(args)
        return multiway_cut(*args)

    monkeypatch.setattr(tm, "multiway_cut", counting_cut)
    res = triple_multicut(g, TripleSet(tuple((t, 1) for t in tris)), 2)
    assert not res.feasible
    assert len(leaves) <= 10
