"""Differential tests of the one-pass Steiner 2-approximation.

`steiner_2approx` evaluates each compression guess once, at the full budget
k - |W|, and reads every budget's answer off those results.  The reference
keeps the earlier form: for each budget b = 0..k it walks every guess with
|W| <= b again, at budget b - |W|, and keeps the first smallest cut.  Both
must give the same answer, None and ValueError included.

The one pass rests on a budget lemma for the two exact cut solvers it
calls: at a budget b <= B, `multiway_cut` and `strict_steiner` return the
budget-B answer when it has size <= b, and None otherwise.  The lemma is
checked here on its own.
"""

import random

from eqcut.cutgraph import CutGraph, components, multiway_cut
from eqcut.solvers import (
    _greedy_feasible,
    _steiner_feasible,
    _steiner_guess,
    _terminal_sets,
    _tset_check,
    compression_guesses,
    steiner_2approx,
    strict_steiner,
)
from eqcut.verify import random_graph


def reference_2approx(g, t_sets, k):
    """The per-budget loop: every guess is evaluated again at each budget."""
    t_sets = _terminal_sets(g, t_sets)
    if any(len(ts) < 2 for ts in t_sets):
        return None
    if _steiner_feasible(g, frozenset(), t_sets):
        return frozenset()
    initial = _greedy_feasible(g, t_sets, k)
    if initial is None:
        return None
    for b in range(k + 1):
        best = None
        for w, contractions in compression_guesses(g, initial, b):
            check = _tset_check(g, w)
            live_sets = [ts for ts in t_sets if not check(ts)]
            for g2, hubs, renaming in contractions:
                out = _steiner_guess(g2, live_sets, hubs, renaming, b - len(w))
                if out is not None:
                    cand = w | out[2]
                    if best is None or len(cand) < len(best):
                        best = cand
        if best is not None:
            return best
    return None


def _outcome(solve, *args):
    try:
        return "ok", solve(*args)
    except ValueError as e:
        return "error", str(e)


def _with_undeletable(rng, g, share=0.15):
    return CutGraph.build(g.vertices, [sorted(e) for e in g.edges],
                          [v for v in g.vertices if rng.random() < share])


def _small_instance(rng):
    n = rng.randint(5, 12)
    g = _with_undeletable(rng, random_graph(rng, n, rng.uniform(0.2, 0.5)))
    vs = list(g.vertices)
    t_sets = []
    for _ in range(rng.randint(1, 3)):
        ts = rng.sample(vs, 1 if rng.random() < 0.03 else rng.choice([2, 3]))
        if rng.random() < 0.02:
            ts.append("zz")  # not a vertex: ValueError
        t_sets.append(ts)
    return g, t_sets, rng.randint(0, 4)


def test_one_pass_matches_per_budget_loop_on_small_graphs():
    rng = random.Random(20240517)
    kinds = {"accept": 0, "reject": 0, "error": 0}
    for _ in range(1000):
        g, t_sets, k = _small_instance(rng)
        got = _outcome(steiner_2approx, g, t_sets, k)
        assert got == _outcome(reference_2approx, g, t_sets, k), (g, t_sets, k)
        kinds["error" if got[0] == "error" else
              "reject" if got[1] is None else "accept"] += 1
    # the cases cover accepts, rejects and input errors alike
    assert min(kinds.values()) > 0 and kinds["accept"] > 500, kinds


def test_one_pass_matches_per_budget_loop_on_bench_sized_graphs():
    # the 16 steiner2x graphs of the solve-scale workload at seed 1, drawn
    # the way the benchmark draws them: n = 128, mean degree about 3, two
    # terminal sets of three from the largest component
    rng = random.Random("eqcut-bench:solve-scale:1")
    for _ in range(16):
        g = random_graph(rng, 128, 3.0 / 127)
        giant = sorted(max(components(g), key=len))
        t_sets = [sorted(rng.sample(giant, 3)) for _ in range(2)]
        for k in (2, 3, 4):
            got = steiner_2approx(g, t_sets, k)
            assert got is not None
            assert got == reference_2approx(g, t_sets, k)


def _groups(rng, vs):
    """Two to four terminals, in disjoint groups of one or two."""
    pool = rng.sample(vs, rng.randint(2, min(len(vs), 4)))
    groups = []
    while pool:
        size = 2 if len(pool) > 2 and rng.random() < 0.25 else 1
        groups.append(pool[:size] if size > 1 else pool[0])
        pool = pool[size:]
    return groups


def _assert_budget_lemma(solve, big) -> bool:
    """The answer at each b <= big is the budget-big answer when that has
    size <= b, and None otherwise.  True when some smaller budget has no
    answer although the budget-big one has."""
    full = solve(big)
    for b in range(big + 1):
        want = full if full is not None and len(full) <= b else None
        assert solve(b) == want, b
    return full is not None and len(full) > 0


def test_multiway_cut_budget_lemma():
    rng = random.Random(31)
    shrinking = 0
    for _ in range(1000):
        n = rng.randint(5, 11)
        g = _with_undeletable(rng, random_graph(rng, n, rng.uniform(0.2, 0.5)))
        groups = _groups(rng, list(g.vertices))
        shrinking += _assert_budget_lemma(
            lambda b: multiway_cut(g, groups, b), rng.randint(0, 6))
    assert shrinking > 100


def test_strict_steiner_budget_lemma():
    rng = random.Random(37)
    shrinking = 0
    for _ in range(1000):
        n = rng.randint(5, 11)
        g = _with_undeletable(rng, random_graph(rng, n, rng.uniform(0.2, 0.6)))
        vs = list(g.vertices)
        hub = rng.choice(vs)
        others = [v for v in vs if v != hub]
        # the hub is in every set, so deleting it alone satisfies them all
        t_sets = [[hub, *rng.sample(others, rng.randint(1, min(3, len(others))))]
                  for _ in range(rng.randint(1, 3))]
        shrinking += _assert_budget_lemma(
            lambda b: strict_steiner(g, hub, t_sets, b), rng.randint(0, 6))
    assert shrinking > 100
