"""Triple Multicut lists the quotient-class ties of g once per triple guess
and reads each vertex guess's classes off the ties that avoid the guess.
Deleting deletable vertices changes no component of g minus its deletable
vertices, so those must be the classes `_quotient_classes` gives for the
ties of g minus the guess.  A guess whose classes put two kept vertices of
a surviving triple in one class is skipped before g minus it is built.

The solver runs with every multiway cut failing, so that it walks every
guess, while spies record each guess's classes, whether it was skipped,
and every vertex set the solver deletes from g."""

import itertools
import random

from eqcut import triple_multicut as tm
from eqcut.cutgraph import CutGraph, TripleSet, triple_multicut_feasible
from eqcut.relations import subsets


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


def guesses(g, ts, k):
    """(protected, kept, w_v) for every vertex guess `triple_multicut`
    makes, in its order."""
    if k == 0 or triple_multicut_feasible(g, ts, (), ()):
        return
    tri_mult = dict(ts)
    for w_t in subsets(sorted(tri_mult, key=sorted), k):
        spent_t = sum(tri_mult[t] for t in w_t)
        if spent_t > k:
            continue
        protected = [t for t, _m in ts if t not in w_t]
        x_all = list(dict.fromkeys(v for t in protected for v in sorted(t)))
        x_verts = [v for v in x_all if g.deletable(v)]
        for w_v in subsets(x_verts, k - spent_t):
            yield protected, [v for v in x_all if v not in w_v], w_v


def first_check_fails(classes, protected):
    """Two vertices of a surviving triple in one class."""
    class_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    for tri in protected:
        members = [class_of[v] for v in tri if v in class_of]
        if len(members) != len(set(members)):
            return True
    return False


def test_each_vertex_guess_reads_its_classes_off_the_ties_of_g(monkeypatch):
    quotient_classes = tm._quotient_classes
    class_conflicts = tm._class_conflicts
    without = CutGraph.without
    walked: list = []  # [classes, skipped] per vertex guess
    built: list = []   # the vertex sets deleted from the instance's graph
    graph = [None]

    def spy_classes(ties, xs):
        walked.append([quotient_classes(ties, xs), None])
        return walked[-1][0]

    def spy_conflicts(classes, protected):
        conflict = class_conflicts(classes, protected)
        walked[-1][1] = conflict is None
        return conflict

    def spy_without(self, removed):
        if self is graph[0]:
            built.append(tuple(removed))
        return without(self, removed)

    monkeypatch.setattr(tm, "_quotient_classes", spy_classes)
    monkeypatch.setattr(tm, "_class_conflicts", spy_conflicts)
    monkeypatch.setattr(tm, "multiway_cut", lambda *args: None)
    monkeypatch.setattr(CutGraph, "without", spy_without)

    skipped = searched = 0
    for g, ts, k in instances():
        walked.clear()
        built.clear()
        graph[0] = g
        tm.triple_multicut(g, ts, k)
        expected = list(guesses(g, ts, k))
        assert len(walked) == len(expected), (g, ts, k)
        searched_w_v = []
        for (classes, skip), (protected, kept, w_v) in zip(walked, expected):
            g1 = without(g, w_v)
            assert classes == quotient_classes(tm._guess_ties(g1, kept),
                                               kept), (g, ts, k, w_v)
            assert skip is first_check_fails(classes, protected), \
                (g, ts, k, w_v)
            if skip:
                skipped += 1
            else:
                searched += 1
                searched_w_v.append(w_v)
        assert built == searched_w_v, (g, ts, k)
    assert skipped > 1_000 and searched > 1_000
