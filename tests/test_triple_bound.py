"""The flow bound on Triple Multicut's component guesses (alphas).

`_alpha_partitions` drops a partial partition as soon as one of its groups
cannot be cut from the others within the budget.  The reference below is
the same enumerator without that bound.  On every guess the solver makes,
the bounded stream must be the reference stream with some alphas left out,
in the same order, and each alpha left out must be one whose Boolean
encoding has no solution within the budget (or is crisp-unsatisfiable).
"""

import itertools
import random

from eqcut import triple_multicut as tm
from eqcut import verify
from eqcut.cutgraph import CutGraph, TripleSet, component_labels
from eqcut.instances import subsets
from eqcut.triple_multicut import (
    _alpha_partitions,
    _quotient_classes,
    boolean_solve,
    build_boolean_instance,
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
    """(g1, live, protected, classes, budget) for every triple and vertex
    deletion guess `triple_multicut` makes, in its order."""
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
            classes = _quotient_classes(g1, [v for v in x_all if v not in w_v])
            yield g1, live, protected, classes, k - spent_t - len(w_v)


def unsolvable(g1, live, alpha, budget, protected):
    try:
        return boolean_solve(build_boolean_instance(g1, live, alpha, budget,
                                                    protected)) is None
    except ValueError:
        return True


def random_graph(rng, n, density, undeletable_share):
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2)
             if rng.random() < density]
    undel = [v for v in vs if rng.random() < undeletable_share]
    return CutGraph.build(vs, edges, undeletable=undel)


def test_bound_drops_only_unsolvable_alphas_and_keeps_the_order():
    rng = random.Random(21)
    kept = dropped = 0
    for _ in range(2_500):
        g = random_graph(rng, rng.randint(5, 11), rng.choice([0.15, 0.3, 0.45]),
                         rng.uniform(0.2, 0.6))
        ts = TripleSet.of(*[(tuple(rng.sample(g.vertices, 3)), rng.randint(1, 2))
                            for _ in range(rng.randint(1, 5))])
        k = rng.randint(0, 4)
        for g1, live, protected, classes, budget in guesses(g, ts, k):
            bounded = [list(a.items()) for a in
                       _alpha_partitions(g1, classes, protected, budget)]
            pos = 0
            for alpha in ref_alpha_partitions(g1, classes, protected):
                if pos < len(bounded) and bounded[pos] == list(alpha.items()):
                    pos += 1
                    kept += 1
                    continue
                dropped += 1
                assert unsolvable(g1, live, alpha, budget, protected), \
                    (g, ts, k, alpha)
            assert pos == len(bounded), (g, ts, k)
    assert kept > 0 and dropped > 1_000


def test_probe_case_builds_almost_no_encodings(monkeypatch):
    # a sparse random graph with 4 triples at k = 2; without the bound it
    # builds 365 encodings, and every one of them has no solution
    n, s = 16, 1
    rng = random.Random(1000 * n + s)
    g = verify.random_graph(rng, n, 3 / n)
    vs = sorted(g.vertices)
    tris = []
    while len(tris) < 4:
        t = frozenset(rng.sample(vs, 3))
        if t not in tris:
            tris.append(t)
    built = []

    def counting_build(*args, **kwargs):
        built.append(args)
        return build_boolean_instance(*args, **kwargs)

    monkeypatch.setattr(tm, "build_boolean_instance", counting_build)
    res = triple_multicut(g, TripleSet(tuple((t, 1) for t in tris)), 2)
    assert not res.feasible
    assert len(built) <= 10
