"""Triple Multicut lists the quotient-class ties of g once per triple
guess, and skips a vertex guess, before it builds g minus the guess, when
the ties that avoid the guess merge two kept vertices of a surviving
triple.  That must happen exactly when `_alpha_partitions` returns at its
first check on the classes `_quotient_classes` gives for the guess."""

import itertools
import random

from eqcut.cutgraph import CutGraph, TripleSet
from eqcut.relations import subsets
from eqcut.triple_multicut import (
    _alpha_partitions,
    _guess_ties,
    _quotient_classes,
    _splits_every_triple,
)


def instances():
    """800 seeded (graph, triples, k) cases with undeletable vertices."""
    rng = random.Random(27)
    for _ in range(800):
        vs = [f"v{i}" for i in range(rng.randint(4, 10))]
        density = rng.choice([0.2, 0.3, 0.5])
        edges = [e for e in itertools.combinations(vs, 2)
                 if rng.random() < density]
        undel = [v for v in vs if rng.random() < 0.2]
        g = CutGraph.build(vs, edges, undeletable=undel)
        ts = TripleSet.of(*[(tuple(rng.sample(vs, 3)), rng.randint(1, 2))
                            for _ in range(rng.randint(1, 5))])
        yield g, ts, rng.randint(0, 3)


def first_check_fails(classes, protected):
    """`_alpha_partitions`' first check: two vertices of a surviving triple
    in one class."""
    class_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    for tri in protected:
        members = [class_of[v] for v in tri if v in class_of]
        if len(members) != len(set(members)):
            return True
    return False


def test_skip_fires_exactly_when_alpha_partitions_returns_at_once():
    skipped = searched = 0
    for g, ts, k in instances():
        tri_mult = dict(ts)
        for w_t in subsets(sorted(tri_mult, key=sorted), k):
            spent_t = sum(tri_mult[t] for t in w_t)
            if spent_t > k:
                continue
            protected = [t for t, _m in ts if t not in w_t]
            x_all = list(dict.fromkeys(v for t in protected
                                       for v in sorted(t)))
            ties = _guess_ties(g, x_all)
            x_verts = [v for v in x_all if g.deletable(v)]
            for w_v in subsets(x_verts, k - spent_t):
                g1 = g.without(w_v)
                classes = _quotient_classes(g1, [v for v in x_all
                                                 if v not in w_v])
                fails = first_check_fails(classes, protected)
                assert _splits_every_triple(ties, protected, set(w_v)) \
                    is not fails, (g, ts, k, w_t, w_v)
                if fails:
                    skipped += 1
                    budget = k - spent_t - len(w_v)
                    assert not list(_alpha_partitions(g1, classes, protected,
                                                      budget))
                else:
                    searched += 1
    assert skipped > 1_000 and searched > 1_000
