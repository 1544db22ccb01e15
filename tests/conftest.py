import itertools

from eqcut.relations import EqRelation, all_patterns, canonicalize


def relations_up_to_symmetry(arity, include_improper=False):
    """One relation per orbit under index permutations: the orbit member
    with the smallest pattern mask, in mask order."""
    pats = all_patterns(arity)
    index = {p: i for i, p in enumerate(pats)}
    # per permutation, where it sends each pattern (by index)
    maps = [[index[canonicalize([p[q] for q in perm])] for p in pats]
            for perm in itertools.permutations(range(arity))]
    seen = bytearray(2 ** len(pats))
    lo = 0 if include_improper else 1
    hi = 2 ** len(pats) if include_improper else 2 ** len(pats) - 1
    for bits in range(lo, hi):
        if seen[bits]:
            continue
        members = [i for i in range(len(pats)) if bits >> i & 1]
        for m in maps:
            seen[sum(1 << m[i] for i in members)] = 1
        yield EqRelation("r", arity, frozenset(pats[i] for i in members))
