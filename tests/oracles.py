"""Slow reference implementations of the queue, word and trace kernels.

These are the straightforward quadratic versions that the linear kernels in
quemon replaced: the prefix function and the overlap by scanning every
length, the normal form as a fold of the
product over single actions, the power as an n-fold product, the action by
slicing the queue, the conjugacy split by trying every rotation, the trace
normal form by greedy rescans, trace equivalence by projections onto
every dependent pair, and the separating-queue search of `quemon eq` with
every level of candidates held in a list.  They share no code with the kernels they check: the
product here is rebuilt on the scanning overlap, and the trace oracles ask
the alphabet only which pairs are independent.
"""

import itertools

from quemon import BOTTOM, NF_IDENTITY, QueueNormalForm


def scan_prefix_function(w):
    """Entry i is the longest proper border of w[:i+1], trying every length."""
    return [max(k for k in range(i + 1) if w[:k] == w[i + 1 - k:i + 1]) for i in range(len(w))]


def scan_overlap(u, v):
    """Longest suffix of u that is a prefix of v, trying the longest first."""
    for k in range(min(len(u), len(v)), 0, -1):
        if u[len(u) - k:] == v[:k]:
            return v[:k]
    return ()


def scan_multiply(x, y):
    """Product of two normal forms, with the center found by scan_overlap."""
    center = scan_overlap(x.center + y.reads + y.center, x.center + x.writes + y.center)
    neg = x.reads + x.center + y.reads + y.center
    pos = x.center + x.writes + y.center + y.writes
    return QueueNormalForm(neg[: len(neg) - len(center)], center, pos[len(center):])


def fold_normal_form(w):
    """Normal form of an action sequence, folding scan_multiply over its actions."""
    nf = NF_IDENTITY
    for a in w:
        if a.startswith("~"):
            nf = scan_multiply(nf, QueueNormalForm((a[1:],), (), ()))
        else:
            nf = scan_multiply(nf, QueueNormalForm((), (), (a,)))
    return nf


def iterated_nf_power(x, n):
    """n-th power of a normal form as an n-fold product."""
    out = NF_IDENTITY
    for _ in range(n):
        out = scan_multiply(out, x)
    return out


def slicing_action(state, w):
    """Apply w to the queue state, slicing the head off at every read."""
    for a in w:
        if state is BOTTOM:
            return BOTTOM
        if a.startswith("~"):
            if state and state[0] == a[1:]:
                state = state[1:]
            else:
                state = BOTTOM
        else:
            state = state + (a,)
    return state


def scan_conjugacy_split(p, q):
    """(g, h) with p = gh and q = hg and g shortest, or None, trying every rotation."""
    if len(p) != len(q):
        return None
    for i in range(len(p)):
        if p[i:] + p[:i] == q:
            return p[:i], p[i:]
    return None


def list_distinguishing_queue(u, v, max_len):
    """Shortest queue (by length, then letter order) on which u and v act
    differently, or None up to max_len, building each level as a list."""
    letters = sorted({a.lstrip("~") for a in u} | {a.lstrip("~") for a in v})
    level = [()]
    for _ in range(max_len + 1):
        for q in level:
            if slicing_action(q, u) != slicing_action(q, v):
                return q
        level = [q + (a,) for q in level for a in letters]
    return None


def greedy_lex_normal_form(g, word, order=None):
    """Least member of the trace class of word, by greedy rescans.

    A letter can come first exactly when its first occurrence is preceded
    only by letters independent of it; among those candidates the least
    (in order, default declaration order) is emitted and its occurrence
    deleted.
    """
    rank = {x: i for i, x in enumerate(g.letters if order is None else order)}
    remaining = list(word)
    out = []
    while remaining:
        best_pos = None
        best_rank = None
        seen = set()
        for i, x in enumerate(remaining):
            if x in seen:
                continue
            seen.add(x)
            if all(g.independent(y, x) for y in remaining[:i]):
                if best_rank is None or rank[x] < best_rank:
                    best_pos, best_rank = i, rank[x]
        out.append(remaining.pop(best_pos))
    return tuple(out)


def projection_equivalent(g, u, v):
    """Trace equivalence by the projection lemma: equal projections onto
    every pair of dependent letters, a letter paired with itself included."""
    for a, b in itertools.combinations_with_replacement(g.letters, 2):
        if a == b or not g.independent(a, b):
            keep = {a, b}
            if [x for x in u if x in keep] != [x for x in v if x in keep]:
                return False
    return True
