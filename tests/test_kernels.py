"""The linear queue, word, trace and alphabet kernels against their slow oracles.

normal_form, overlap, nf_power, action, conjugacy_decomposition and the
Knuth-Morris-Pratt step match_step, with its border table built on demand,
are checked against the quadratic versions in oracles.py: exhaustively at
small sizes, with hypothesis on longer words over one to three letters
(where centers get long) and on near-periodic words of up to 400 actions
(where a match runs for hundreds of letters before it falls back), and on
the edge cases by hand.  The border table, which grows by periodic runs,
is checked against the stepwise prefix-function loop on powers of random
roots with a random tail, built in any order of partial builds, and the
number of runs is pinned on the Fibonacci word, on a power with a tail
and on random words.  power_mu is checked against the overlap of the
full n-fold sides, exhaustively and, with nf_power, on elements built from
powers of a primitive root and its rotation, with n up to 3,000, where the
match is extended by the primitive period.  lex_normal_form
and trace_equivalent are checked against the greedy normal form, the
pairwise-projection test and bfs_trace_class: exhaustively on small
independence graphs, with hypothesis on random graphs of 8 to 28 letters.
They are also checked against the dependence-stack kernels they replaced:
on every graph over four letters with every word of length up to 5, and
with hypothesis on graphs of 30 to 300 letters around a high-degree core,
with words of up to 2,000 letters.  equivalent and trace_equivalent,
which read from where two words first differ, are checked on pairs that
share a prefix and a suffix of up to 2,000 actions or letters: against the
fold's normal forms after one action is replaced or flipped or one rewrite
rule is applied, and against the projections after a swap or a replaced
letter in the middle.  The scan that emits lex_normal_form
is checked against both the stack kernel and the heap-and-bucket kernel
it replaced on words whose letters overtake the scan, under declaration
and reversed order.  A test of another letter order declares the alphabet
in it and checks against the oracles given that order.  The last tests
keep every kernel linear: at 64,000 actions or letters, or 16,000-letter
alphabets, a quadratic version takes minutes, and power_mu at n = 10^9
matches only |neg x| + |pos x| letters; the trace kernels stay under
64 MB on a 16,000-letter matching, and read as the resident peak of a
child process, they stay under 64 MB there and the queue kernels under
40 MB on their deep-fallback words; the bounded verification on K(3,3) at
length 7 pays per class, not per word, and stays under 32 MB; and an
embedding over a 4,000-letter alphabet is built once, in time linear in
the alphabet and its letter images.
"""

import itertools
import math
import os
import random
import string
import subprocess
import sys
import time
import tracemalloc

from hypothesis import given, settings, strategies as st

import quemon
from quemon import (
    BOTTOM,
    NF_IDENTITY,
    Embeddable,
    IndependenceAlphabet,
    MissingPair,
    NotCompleteBipartite,
    NotEmbeddable,
    OddCycle,
    ProductWord,
    QueueNormalForm,
    TraceWord,
    action,
    conjugacy_decomposition,
    decide_embeddable,
    embed_to_two_free,
    equivalent,
    is_primitive,
    letter_images,
    lex_normal_form,
    nf_power,
    normal_form,
    overlap,
    power_mu,
    primitive_root,
    trace_equivalent,
    verify_embedding_bounded,
)
from quemon import embed, words
from quemon.trace import _offsets
from quemon.words import match_step

from oracles import (
    _stacks,
    _words_with_keys,
    bfs_trace_class,
    bucket_lex_normal_form,
    fold_normal_form,
    greedy_lex_normal_form,
    iterated_nf_power,
    overlap_power_mu,
    projection_equivalent,
    scan_conjugacy_split,
    scan_overlap,
    scan_prefix_function,
    slicing_action,
    stack_lex_normal_form,
    stack_trace_equivalent,
    stepwise_border_table,
)

ACTIONS = ("a", "b", "~a", "~b")
LETTERS = ("a", "b", "c")


def words_up_to(n, alphabet):
    for k in range(n + 1):
        yield from itertools.product(alphabet, repeat=k)


def _queue_run(letters, steps):
    """An action sequence that mostly reads what it wrote, so centers are long.

    steps is a list of (kind, letter) draws: kind 0 writes the letter, kind 1
    reads the front of the simulated queue (or the letter when it is empty),
    kind 2 reads the letter whatever the front is.
    """
    queue, out = [], []
    for kind, x in steps:
        if kind == 0:
            queue.append(x)
            out.append(x)
        elif kind == 1 and queue:
            out.append("~" + queue.pop(0))
        else:
            out.append("~" + x)
            if queue and queue[0] == x:
                queue.pop(0)
    return tuple(out)


@st.composite
def long_queue_words(draw):
    letters = LETTERS[: draw(st.integers(min_value=1, max_value=3))]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from((0, 0, 1, 1, 2)), st.sampled_from(letters)
            ),
            max_size=120,
        )
    )
    return _queue_run(letters, steps)


@st.composite
def plain_words(draw, max_size=60):
    letters = LETTERS[: draw(st.integers(min_value=1, max_value=3))]
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=max_size)))


# -- exhaustive at small sizes ------------------------------------------------

def test_normal_form_matches_fold_on_all_words_up_to_8():
    count = 0
    for w in words_up_to(8, ACTIONS):
        assert normal_form(w) == fold_normal_form(w), w
        count += 1
    assert count == sum(4 ** k for k in range(9))


def test_overlap_matches_scan_on_all_pairs_up_to_5():
    pool = list(words_up_to(5, LETTERS))
    for u in pool:
        for v in pool:
            assert overlap(u, v) == scan_overlap(u, v), (u, v)


def test_nf_power_matches_iterated_product_up_to_5():
    for w in words_up_to(5, ACTIONS):
        x = normal_form(w)
        for n in range(7):
            assert nf_power(x, n) == iterated_nf_power(x, n), (w, n)


def test_power_mu_matches_overlap_up_to_6():
    for w in words_up_to(6, ACTIONS):
        x = normal_form(w)
        for n in range(1, 13):
            assert power_mu(x, n) == overlap_power_mu(x, n), (w, n)
    # the primitive period 1 is shorter than gcd(|neg|, |pos|) = 2
    assert power_mu(QueueNormalForm(("a",), ("a",), ("a",)), 3) == ("a",) * 5


def test_action_matches_slicing_up_to_6():
    queues = list(words_up_to(3, ("a", "b")))
    for w in words_up_to(6, ACTIONS):
        for q in queues:
            assert action(q, w) == slicing_action(q, w), (q, w)


def test_conjugacy_decomposition_matches_scan():
    for alphabet, n in ((("a", "b"), 7), (LETTERS, 4)):
        pool = [w for w in words_up_to(n, alphabet) if w and is_primitive(w)]
        by_length = {}
        for w in pool:
            by_length.setdefault(len(w), []).append(w)
        for p in pool:
            for q in by_length[len(p)]:
                dec = conjugacy_decomposition(p, q)
                split = None if dec is None else (dec.g, dec.h)
                assert split == scan_conjugacy_split(p, q), (p, q)


def test_prefix_function_examples():
    assert scan_prefix_function(()) == []
    assert scan_prefix_function(tuple("a")) == [0]
    assert scan_prefix_function(tuple("aabaaab")) == [0, 1, 0, 1, 2, 2, 3]
    assert scan_prefix_function(tuple("abcabcab")) == [0, 0, 0, 1, 2, 3, 4, 5]


def test_match_step_extends_any_partial_border_table():
    for pattern in words_up_to(7, ("a", "b")):
        full = scan_prefix_function(pattern)
        n = len(pattern)
        for k in range(n + 1):
            for x in ("a", "b"):
                text = pattern[:k] + (x,)
                want = max(j for j in range(min(n, k + 1) + 1) if text[k + 1 - j:] == pattern[:j])
                for built in range(n + 1):
                    border = full[:built]
                    assert match_step(pattern, border, k, x) == want, (pattern, k, x, built)
                    assert len(border) >= built and border == full[: len(border)], (pattern, k, x, built)


def _border_table(pattern):
    """The whole prefix function of pattern, as match_step builds it when a
    full match falls back."""
    border = []
    if pattern:
        match_step(pattern, border, len(pattern), pattern[0])
    return border


def test_border_table_is_the_prefix_function_on_every_word():
    for alphabet, n in ((("a", "b"), 12), (LETTERS, 8)):
        for pattern in words_up_to(n, alphabet):
            assert _border_table(pattern) == scan_prefix_function(pattern), pattern


def _fibonacci_word(m):
    a, b = ("a",), ("a", "b")
    while len(b) < m:
        a, b = b, b + a
    return b[:m]


def test_border_table_takes_few_periodic_runs(monkeypatch):
    calls = []
    run = words._periodic_run

    def counted(pattern, start, p):
        calls.append(p)
        return run(pattern, start, p)

    monkeypatch.setattr(words, "_periodic_run", counted)

    def runs(pattern):
        calls.clear()
        assert _border_table(pattern) == stepwise_border_table(pattern)
        return len(calls)

    # the runs start at prefix squares with primitive roots, which grow at
    # least like the Fibonacci numbers (the three-squares lemma)
    m = 10**5
    assert runs(_fibonacci_word(m)) <= math.log(m, (1 + math.sqrt(5)) / 2) + 2
    s = tuple("aabab")
    assert runs(s * 200_000 + tuple("abbab")) == 1
    assert runs(("a",) * m) == 1
    # a run starts only where a prefix has a border longer than half of it,
    # and on random words such prefixes are short
    rng = random.Random(5)
    for _ in range(4):
        w = tuple(rng.choice("ab") for _ in range(m))
        long_borders = sum(2 * j > i + 1 for i, j in enumerate(stepwise_border_table(w)))
        count = runs(w)
        assert count <= long_borders and (count == 0) == (long_borders == 0), w[:20]


@st.composite
def periodic_patterns(draw):
    """A power of a random root over one to three letters, with a random
    tail, of up to 5,000 letters."""
    letters = LETTERS[: draw(st.integers(min_value=1, max_value=3))]
    root = tuple(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=12)))
    power = root * draw(st.integers(0, 4_900 // len(root)))
    return power + tuple(draw(st.lists(st.sampled_from(letters), max_size=100)))


@given(periodic_patterns(), st.lists(st.integers(min_value=0, max_value=5_000), max_size=8))
@settings(max_examples=200, deadline=None)
def test_border_table_is_stepwise_under_any_partial_builds(pattern, ks):
    full = stepwise_border_table(pattern)
    border = []
    for k in ks + [len(pattern)]:
        k %= len(pattern) + 1
        # "~" is no letter of pattern, so the match falls back to 0 and
        # needs every entry up to k
        assert match_step(pattern, border, k, "~") == 0
        assert k <= len(border) <= len(pattern) and border == full[: len(border)]
    assert border == full


def test_overlap_compares_a_full_alignment_without_a_scan(monkeypatch):
    calls = []
    step = words.match_step

    def counted(*args):
        calls.append(args[2])
        return step(*args)

    monkeypatch.setattr(words, "match_step", counted)
    w = tuple("aabab") * 200_000
    assert overlap(w, w) == w
    assert overlap(("b",) + w, w) == overlap(w, w + ("b",)) == w
    assert not calls
    assert overlap(w, w[:-1] + ("a",)) == w[:-5]
    assert calls


def _small_graphs():
    """Every independence graph on three letters, and P4, C4, K4 and the
    empty graph on four."""
    three = ("a", "b", "c")
    pairs = list(itertools.combinations(three, 2))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            yield IndependenceAlphabet(three, edges)
    four = ("a", "b", "c", "d")
    path = [("a", "b"), ("b", "c"), ("c", "d")]
    for edges in (path, path + [("d", "a")], list(itertools.combinations(four, 2)), []):
        yield IndependenceAlphabet(four, edges)



def _declared(g, order):
    """g with its letters declared in order, the order lex_normal_form ranks
    them by."""
    return IndependenceAlphabet(order, g.edges)


def _offset_key(u):
    """The offsets of u as a hashable class key."""
    return tuple(sorted((x, tuple(o)) for x, o in _offsets(u.alphabet, u.word).items()))

def test_lex_normal_form_matches_greedy_on_all_words_up_to_6():
    for g in _small_graphs():
        for order in (g.letters, g.letters[::-1]):
            h = _declared(g, order)
            for w in words_up_to(6, g.letters):
                got = lex_normal_form(TraceWord(h, w)).word
                assert got == greedy_lex_normal_form(g, w, order), (g, order, w)


def test_class_keys_are_the_offsets_and_separate_exactly_the_classes_up_to_6():
    # the class keys that verify_embedding_bounded extends letter by letter
    # hold the offsets that trace_equivalent compares (each letter's places
    # in its dependence stack), on embeddable and non-embeddable graphs alike
    for g in _small_graphs():
        images = {x: ProductWord((), ()) for x in g.letters}
        class_of = {}
        offsets_of = {}
        for w, key, _ in _words_with_keys(g, images, 6):
            u = TraceWord(g, w)
            offs = _offsets(g, w)
            assert key == tuple(sum(1 << o for o in offs.get(x, ())) for x in g.letters), (g, w)
            nf = greedy_lex_normal_form(g, w)
            assert class_of.setdefault(key, nf) == nf, (g, w)
            offsets = _offset_key(u)
            assert offsets_of.setdefault(offsets, nf) == nf, (g, w)
        assert len(set(class_of.values())) == len(class_of) == len(offsets_of), g


def test_trace_equivalent_matches_projections_and_bfs_up_to_4():
    for g in _small_graphs():
        pool = list(words_up_to(4 if len(g.letters) == 3 else 3, g.letters))
        for w in pool:
            u = TraceWord(g, w)
            cls = bfs_trace_class(u)
            for v in pool:
                want = v in cls
                assert projection_equivalent(g, w, v) == want, (g, w, v)
                assert trace_equivalent(u, TraceWord(g, v)) == want, (g, w, v)


# -- hypothesis on longer words -----------------------------------------------

@given(long_queue_words())
@settings(max_examples=200, deadline=None)
def test_normal_form_matches_fold_on_long_words(w):
    assert normal_form(w) == fold_normal_form(w)


@given(plain_words(), plain_words())
@settings(max_examples=300, deadline=None)
def test_overlap_matches_scan_on_long_words(u, v):
    assert overlap(u, v) == scan_overlap(u, v)
    assert overlap(u + v, v) == v


@given(long_queue_words(), st.integers(min_value=0, max_value=8))
@settings(max_examples=100, deadline=None)
def test_nf_power_matches_iterated_product_on_long_words(w, n):
    x = normal_form(w)
    assert nf_power(x, n) == iterated_nf_power(x, n)


@st.composite
def periodic_elements(draw):
    """A normal form whose three parts are powers of one primitive root or
    of one rotation of it, with 0 to 2 stray letters inserted, and an
    exponent up to 3,000.  neg and pos are then often powers of conjugate
    words, where power_mu extends its match by the primitive period."""
    root = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=6).map(tuple).filter(is_primitive))
    i = draw(st.integers(0, len(root) - 1))
    bases = (root, root[i:] + root[:i])
    parts = [list(draw(st.sampled_from(bases)) * draw(st.integers(0, 5))) for _ in range(3)]
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(parts))
        part.insert(draw(st.integers(0, len(part))), draw(st.sampled_from("abc")))
    return QueueNormalForm(*map(tuple, parts)), draw(st.integers(1, 3_000))


@given(periodic_elements())
@settings(max_examples=300, deadline=None)
def test_power_mu_matches_overlap_on_periodic_elements(xn):
    x, n = xn
    center = overlap_power_mu(x, n)
    assert power_mu(x, n) == center
    power = nf_power(x, n)
    assert power.center == center
    assert power.neg() == x.neg() * n and power.pos() == x.pos() * n
    if n <= 20:
        assert power == iterated_nf_power(x, n)


@given(plain_words(max_size=20), long_queue_words())
@settings(max_examples=200, deadline=None)
def test_action_matches_slicing_on_long_words(q, w):
    assert action(q, w) == slicing_action(q, w)


@given(plain_words(max_size=12), st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_conjugacy_on_rotations_of_roots(r, e):
    if not r:
        return
    root, _ = primitive_root(r * e)
    for i in range(len(root)):
        q = root[i:] + root[:i]
        dec = conjugacy_decomposition(root, q)
        assert (dec.g, dec.h) == scan_conjugacy_split(root, q)


@st.composite
def near_periodic_runs(draw):
    """A power of a random primitive root over {a, b}, written and read back
    with 0 to 2 letters changed on either side or both, as 50 to 400 actions.

    Writes and reads follow a random walk that lets the reads catch up with
    the writes and run ahead of them, so the match in normal_form runs for
    hundreds of letters, reaches len(pos), and falls back from deep k.
    Returns the action word and the written and the read letters.
    """
    root = draw(st.lists(st.sampled_from("ab"), min_size=1, max_size=7).map(tuple).filter(is_primitive))
    n = draw(st.integers(min_value=25, max_value=200))
    text = (root * (n // len(root) + 1))[:n]
    pos, neg = list(text), list(text)
    # a letter changed on both sides lets the match run past it, so a later
    # fallback reads the border table beyond the change
    changes = st.tuples(st.sampled_from(("pos", "neg", "both")), st.integers(0, n - 1))
    for side, i in draw(st.lists(changes, max_size=2)):
        for name, word in (("pos", pos), ("neg", neg)):
            if side in (name, "both"):
                word[i] = "b" if word[i] == "a" else "a"
    rng = draw(st.randoms(use_true_random=False))
    w, wrote, read = [], 0, 0
    while wrote < n or read < n:
        # reads trail the writes closely and sometimes run ahead
        if read == n or (wrote < n and rng.random() < (0.3 if read < wrote else 0.7)):
            w.append(pos[wrote])
            wrote += 1
        else:
            w.append("~" + neg[read])
            read += 1
    return tuple(w), tuple(pos), tuple(neg)


@given(near_periodic_runs())
@settings(max_examples=60, deadline=None)
def test_kernels_match_oracles_on_long_near_periodic_words(run):
    w, pos, neg = run
    assert normal_form(w) == fold_normal_form(w)
    assert overlap(neg, pos) == scan_overlap(neg, pos)
    assert overlap(pos, neg) == scan_overlap(pos, neg)
    for q in ((), pos[:7]):
        assert action(q, w) == slicing_action(q, w)
    turned = pos[len(pos) // 3:] + pos[: len(pos) // 3]
    for p, q in ((pos, turned), (neg, turned)):
        if is_primitive(p) and is_primitive(q):
            dec = conjugacy_decomposition(p, q)
            assert (None if dec is None else (dec.g, dec.h)) == scan_conjugacy_split(p, q)


@st.composite
def graphs_and_words(draw):
    """A random independence graph on 8 to 28 letters, a shuffled order,
    a word over a prefix of the letters, and a seeded Random for copies."""
    letters = tuple(string.ascii_letters[: draw(st.integers(min_value=8, max_value=28))])
    p = draw(st.sampled_from((0.1, 0.5, 0.9)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    g = IndependenceAlphabet(
        letters, [e for e in itertools.combinations(letters, 2) if rng.random() < p]
    )
    order = list(letters)
    rng.shuffle(order)
    used = letters[: draw(st.integers(min_value=1, max_value=len(letters)))]
    w = tuple(rng.choice(used) for _ in range(draw(st.integers(min_value=0, max_value=60))))
    return g, order, w, rng


def _swap_independent(g, w, rng, times):
    w = list(w)
    for _ in range(times):
        i = rng.randrange(len(w) - 1)
        if g.independent(w[i], w[i + 1]):
            w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


@given(graphs_and_words())
@settings(max_examples=150, deadline=None)
def test_lex_normal_form_matches_greedy_on_random_graphs(gw):
    g, order, w, _ = gw
    u = TraceWord(g, w)
    assert lex_normal_form(u).word == greedy_lex_normal_form(g, w)
    assert lex_normal_form(TraceWord(_declared(g, order), w)).word == greedy_lex_normal_form(g, w, order)


@given(graphs_and_words())
@settings(max_examples=150, deadline=None)
def test_trace_equivalent_matches_projections_on_random_graphs(gw):
    g, _, w, rng = gw
    if len(w) < 2:
        return
    others = [_swap_independent(g, w, rng, 3 * len(w)), tuple(rng.sample(w, len(w)))]
    i = next((i for i in range(len(w) - 1) if w[i] != w[i + 1] and not g.independent(w[i], w[i + 1])), None)
    if i is not None:
        others.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
    for v in others:
        want = projection_equivalent(g, w, v)
        assert trace_equivalent(TraceWord(g, w), TraceWord(g, v)) == want
        assert (_offsets(g, w) == _offsets(g, v)) == want
    assert trace_equivalent(TraceWord(g, w), TraceWord(g, others[0]))
    if i is not None:
        assert not trace_equivalent(TraceWord(g, w), TraceWord(g, others[-1]))


def _swappable(w, j):
    """Whether a rewrite rule, read either way, swaps w[j] and w[j + 1]: one
    write x and one read ~y, with y != x, a read after them or a write
    before them (the rules a ~b -> ~b a, a ~b ~c -> ~b a ~c and
    a b ~c -> a ~c b)."""
    a, b = w[j], w[j + 1]
    if (a[0] == "~") == (b[0] == "~"):
        return False
    return (
        a.lstrip("~") != b.lstrip("~")
        or (j + 2 < len(w) and w[j + 2][0] == "~")
        or (j > 0 and w[j - 1][0] != "~")
    )


@st.composite
def near_equal_queue_pairs(draw):
    """Two queue words that share a prefix and a suffix of up to 2,000
    actions each and differ in between: one action replaced by another of
    its kind or of the other kind, one read turned into a write of its
    letter or back, or one rewrite rule applied at a random place."""
    how = draw(st.sampled_from(("same kind", "other kind", "flip", "rule")))
    letters = LETTERS[: draw(st.integers(min_value=2 if how == "same kind" else 1, max_value=3))]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))

    def run(n):
        return _queue_run(letters, [(rng.choice((0, 0, 1, 1, 2)), rng.choice(letters)) for _ in range(n)])

    p = run(draw(st.integers(min_value=0, max_value=2_000)))
    s = run(draw(st.integers(min_value=0, max_value=2_000)))
    x = run(draw(st.integers(min_value=1, max_value=8)))
    i = rng.randrange(len(x))
    a = x[i]
    read = a[0] == "~"
    if how == "same kind":
        b = rng.choice([y for y in letters if y != a.lstrip("~")])
        b = "~" + b if read else b
    elif how == "other kind":
        b = rng.choice(letters)
        b = b if read else "~" + b
    elif how == "flip":
        b = a[1:] if read else "~" + a
    else:
        w = p + x + s
        places = [j for j in range(len(w) - 1) if _swappable(w, j)]
        if not places:
            return w, w
        j = rng.choice(places)
        return w, w[:j] + (w[j + 1], w[j]) + w[j + 2:]
    return p + x + s, p + x[:i] + (b,) + x[i + 1:] + s


@given(near_equal_queue_pairs())
@settings(max_examples=60, deadline=None)
def test_equivalent_matches_the_fold_on_near_equal_long_pairs(uv):
    u, v = uv
    want = fold_normal_form(u) == fold_normal_form(v)
    assert equivalent(u, v) == want
    assert equivalent(v, u) == want


@st.composite
def padded_trace_pairs(draw):
    """A random independence graph on 3 to 8 letters and two words p x s
    and p y s, where p and s have up to 2,000 letters (either may be
    empty, so the words can differ at their first or last position) and
    the short x and y are equal, equivalent by swaps of independent
    letters, apart by one swap of dependent letters, or apart by one
    letter replaced by another (also where no two letters depend)."""
    letters = tuple(string.ascii_letters[: draw(st.integers(min_value=3, max_value=8))])
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    p_edge = draw(st.sampled_from((0.2, 0.5, 0.8)))
    g = IndependenceAlphabet(
        letters, [e for e in itertools.combinations(letters, 2) if rng.random() < p_edge]
    )
    pad = draw(st.sampled_from(("both", "suffix only", "prefix only")))
    p = tuple(rng.choice(letters) for _ in range(0 if pad == "suffix only" else rng.randrange(2_001)))
    s = tuple(rng.choice(letters) for _ in range(0 if pad == "prefix only" else rng.randrange(2_001)))
    x = tuple(rng.choice(letters) for _ in range(draw(st.integers(min_value=2, max_value=8))))
    how = draw(st.sampled_from(("equal", "independent swaps", "dependent swap", "replaced letter")))
    if how == "equal":
        y = x
    elif how == "independent swaps":
        y = _swap_independent(g, x, rng, 3 * len(x))
    elif how == "dependent swap" and any(not g.independent(*e) for e in itertools.combinations(letters, 2)):
        c, d = rng.choice([e for e in itertools.combinations(letters, 2) if not g.independent(*e)])
        i = rng.randrange(len(x) - 1)
        x, y = x[:i] + (c, d) + x[i + 2:], x[:i] + (d, c) + x[i + 2:]
    else:
        i = rng.randrange(len(x))
        y = x[:i] + (rng.choice([z for z in letters if z != x[i]]),) + x[i + 1:]
    return g, p + x + s, p + y + s


@given(padded_trace_pairs())
@settings(max_examples=150, deadline=None)
def test_trace_equivalent_matches_projections_between_a_shared_prefix_and_suffix(guv):
    g, u, v = guv
    want = projection_equivalent(g, u, v)
    assert trace_equivalent(TraceWord(g, u), TraceWord(g, v)) == want
    assert trace_equivalent(TraceWord(g, v), TraceWord(g, u)) == want


def test_trace_equivalent_at_the_ends_of_long_words():
    # the words differ at the first position, the last, both or nowhere;
    # a and b commute, c commutes with neither
    g = IndependenceAlphabet(("a", "b", "c"), [("a", "b")])
    mid = ("c", "a", "b") * 700
    cases = [
        (("a", "b") + mid, ("b", "a") + mid, True),
        (("a", "c") + mid, ("c", "a") + mid, False),
        (mid + ("a", "b"), mid + ("b", "a"), True),
        (mid + ("c", "b"), mid + ("b", "c"), False),
        (("a",) + mid + ("b",), ("b",) + mid + ("a",), False),
        (("a", "b") + mid + ("a", "b"), ("b", "a") + mid + ("b", "a"), True),
        (mid, mid, True),
        (("a",) + mid, ("c",) + mid, False),
    ]
    for u, v, want in cases:
        assert projection_equivalent(g, u, v) == want
        assert trace_equivalent(TraceWord(g, u), TraceWord(g, v)) == want, (u[:3], v[:3], u[-3:], v[-3:])


# -- the offset kernels against the stack kernels they replaced ---------------

def test_offset_kernels_equal_the_stack_kernels_on_every_graph_on_4_letters():
    # trace_equivalent is equal lengths and equal offsets, so checking that
    # the offsets split each graph's words into the classes the stacks do
    # covers every pair of words; the stack normal form is computed once
    # per class
    four = ("a", "b", "c", "d")
    pairs = list(itertools.combinations(four, 2))
    words = list(words_up_to(5, four))
    for r in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, r):
            g = IndependenceAlphabet(four, edges)
            declared = {order: _declared(g, order) for order in (four, four[::-1])}
            classes = {}
            normal_forms = {}
            for w in words:
                u = TraceWord(g, w)
                stacks = tuple(map(tuple, _stacks(u)))
                offsets = _offset_key(u)
                assert classes.setdefault(stacks, offsets) == offsets, (g, w)
                for order, h in declared.items():
                    if (stacks, order) not in normal_forms:
                        normal_forms[stacks, order] = stack_lex_normal_form(u, order).word
                    nf = lex_normal_form(TraceWord(h, w)).word
                    assert nf == normal_forms[stacks, order], (g, order, w)
                assert trace_equivalent(u, TraceWord(g, nf)), (g, w)
            assert len(set(classes.values())) == len(classes), g


@st.composite
def cored_graphs_and_words(draw):
    """30 to 300 letters around a high-degree core of 6 to 60 letters: a
    complete bipartite graph, the same with one edge inside a side (odd
    cycles), or two complete bipartite components; a sparse matching on
    the rest; a shuffled order, and a word of up to 2,000 letters, about
    half of them from the core."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    letters = tuple(f"x{i}" for i in range(draw(st.integers(min_value=30, max_value=300))))
    core = list(letters[: rng.randint(6, 60)])
    rng.shuffle(core)
    kind = draw(st.sampled_from(("bipartite", "odd", "two")))
    parts = [core] if kind != "two" else [core[: len(core) // 2], core[len(core) // 2:]]
    edges = set()
    for part in parts:
        p = rng.randint(1, len(part) - 2)
        edges.update((a, b) for a in part[:p] for b in part[p:])
    if kind == "odd":
        edges.add((core[-2], core[-1]))
    rest = list(letters[len(core):])
    rng.shuffle(rest)
    edges.update(zip(rest[: len(rest) // 4], rest[len(rest) // 4: len(rest) // 2]))
    g = IndependenceAlphabet(letters, edges)
    order = list(letters)
    rng.shuffle(order)
    n = draw(st.integers(min_value=0, max_value=2_000))
    w = tuple(rng.choice(core) if rng.random() < 0.5 else rng.choice(letters) for _ in range(n))
    return g, order, w, rng


@given(cored_graphs_and_words())
@settings(max_examples=40, deadline=None)
def test_offset_kernels_equal_the_stack_kernels_on_cored_graphs(gw):
    g, order, w, rng = gw
    u = TraceWord(g, w)
    nf = lex_normal_form(TraceWord(_declared(g, order), w)).word
    assert nf == stack_lex_normal_form(u, order).word
    assert lex_normal_form(u) == stack_lex_normal_form(u)
    assert trace_equivalent(u, TraceWord(g, nf))
    others = [_swap_independent(g, w, rng, 3 * len(w)) if len(w) > 1 else w, w[::-1]]
    i = next((i for i in range(len(w) - 1) if w[i] != w[i + 1]), None)
    if i is not None:
        others.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
    for v in others:
        v = TraceWord(g, v)
        assert trace_equivalent(u, v) == stack_trace_equivalent(u, v)


# -- the scan against the heap-and-bucket kernel it replaced ----------------

def _complete_bipartite(m):
    """K(m, m) with its two sides declared alternately: every p is
    independent of every q, and letters on one side are dependent."""
    left, right = [f"p{i}" for i in range(m)], [f"q{i}" for i in range(m)]
    letters = [x for pair in zip(left, right) for x in pair]
    return IndependenceAlphabet(letters, [(x, y) for x in left for y in right])


def _overtaking_shapes():
    """Words whose letters are emitted ahead of the scan: (b a)^n with a I b,
    (b c a)^n with a I b and a I c, b^k a with a I b, (c b a)^n over three
    pairwise independent letters, where two letters before the scanned one
    wait at once, and random words over K(m, m) for m = 3, 8 and 40.  The
    test reads each word forwards and backwards."""
    ab = IndependenceAlphabet(("a", "b"), [("a", "b")])
    abc = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("a", "c")])
    free = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
    for n in (1, 2, 3, 7, 40):
        yield ab, ("b", "a") * n
        yield abc, ("b", "c", "a") * n
        yield ab, ("b",) * n + ("a",)
        yield free, ("c", "b", "a") * n
    rng = random.Random(11)
    for m in (3, 8, 40):
        g = _complete_bipartite(m)
        for n in (5, 60, 600, 3_000):
            yield g, tuple(rng.choice(g.letters) for _ in range(n))


def test_lex_normal_form_matches_both_oracles_where_letters_overtake_the_scan():
    for g, w in _overtaking_shapes():
        for order in (g.letters, g.letters[::-1]):
            h = _declared(g, order)
            for v in (w, w[::-1]):
                u = TraceWord(g, v)
                nf = lex_normal_form(TraceWord(h, v)).word
                assert nf == bucket_lex_normal_form(u, order).word, (g, order, v)
                assert nf == stack_lex_normal_form(u, order).word, (g, order, v)


# -- edge cases ---------------------------------------------------------------

def test_edge_cases():
    assert normal_form(()) == NF_IDENTITY
    assert overlap((), ()) == ()
    assert overlap(("a",), ()) == ()
    assert action((), ()) == ()
    assert action(BOTTOM, ()) is BOTTOM
    x = normal_form(("a", "~b", "c"))
    assert nf_power(x, 0) == NF_IDENTITY
    assert nf_power(NF_IDENTITY, 5) == NF_IDENTITY
    assert nf_power(x, 1) == x
    # the center uses every written letter
    full = normal_form(("a", "b", "~a", "a", "~b", "~a"))
    assert full == QueueNormalForm((), ("a", "b", "a"), ())
    assert full == fold_normal_form(("a", "b", "~a", "a", "~b", "~a"))
    # a read past a full center falls back along the borders of pos
    w = ("a", "b", "a", "~a", "~b", "~a", "~b")
    assert normal_form(w) == fold_normal_form(w) == QueueNormalForm(
        ("a", "b"), ("a", "b"), ("a",)
    )
    # BOTTOM from an empty queue and from a wrong front letter
    assert action((), ("~a",)) is BOTTOM
    assert action(("a",), ("~a", "~a")) is BOTTOM
    assert action(("b", "a"), ("~a",)) is BOTTOM
    assert action(("a",), ("b", "~a", "~a")) is BOTTOM
    assert action(("a",), ("b", "~a", "~b")) == ()


# -- no quadratic path --------------------------------------------------------

CAP_S = 5.0  # each call below takes tens of milliseconds; quadratic code, minutes
TRACE_PEAK_BYTES = 64 * 2**20
VERIFY_PEAK_BYTES = 32 * 2**20
# whole-process peaks, interpreter and inputs included, measured at 36 MB
# and 25 MB on a 2-core Linux host, 13 MB of it a bare interpreter.  A table
# per dependent letter of the matching, or one quadratic in the 64,000
# actions, takes gigabytes
TRACE_MAX_RSS_MB = 64
QUEUE_MAX_RSS_MB = 40


def _timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < CAP_S, f"{f.__name__} took {elapsed:.1f}s"
    return out


def test_kernels_stay_linear_at_64000_actions():
    r = ("a", "b", "c")
    reads = tuple("~" + x for x in r)
    k = 8_000
    interleaved = tuple(a for x in r * 2_667 for a in (x, "~" + x))
    w = r * k + reads * k + interleaved  # long center: every letter is read back
    v = tuple(a for x in r * k for a in (x, "~" + x)) + interleaved
    assert len(w) == len(v) == 64_002

    nf = _timed(normal_form, w)
    assert nf == QueueNormalForm((), r * 10_667, ())
    assert _timed(equivalent, w, v)
    assert not _timed(equivalent, w, v[:-1] + ("~b",))

    x = normal_form(("a", "b", "~a", "~b"))
    assert _timed(nf_power, x, 16_000) == QueueNormalForm((), ("a", "b") * 16_000, ())
    y = normal_form(("a", "b", "c", "~a"))
    assert _timed(nf_power, y, 16_000).center == ("a",)
    # the center is matched on |neg| + |pos| letters whatever n: matching
    # all n |x| of them would build tuples of 10^9 letters
    assert _timed(power_mu, y, 10**9) == ("a",)
    assert _timed(power_mu, QueueNormalForm(("a",), (), ("b", "c", "d")), 10**9) == ()

    state = _timed(action, r * 16_000, reads * 10_000 + r * 11_334)
    assert state == r * 17_334

    # u matches v up to its b again and again, falling back each time
    u = ("a",) * 64_000
    v = ("a",) * 32_000 + ("b",) + ("a",) * 32_000
    assert _timed(overlap, u, v) == ("a",) * 32_000
    # the same deep fallback on every read, with the border table of pos
    # built on demand: rebuilding it on each fallback would be quadratic
    deep = v + tuple("~" + x for x in u)
    assert _timed(normal_form, deep) == QueueNormalForm(("a",) * 32_000, ("a",) * 32_000, ("b",) + ("a",) * 32_000)


def test_trace_kernels_stay_linear_at_64000_letters():
    rng = random.Random(3)
    letters = tuple(string.ascii_letters[:28])
    g = IndependenceAlphabet(letters, [e for e in itertools.combinations(letters, 2) if rng.random() < 0.3])
    w = tuple(rng.choice(letters) for _ in range(64_000))
    same = _swap_independent(g, w, rng, 128_000)
    i = next(i for i in range(len(w) - 1) if w[i] != w[i + 1] and not g.independent(w[i], w[i + 1]))
    other = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
    u, v = TraceWord(g, w), TraceWord(g, same)

    nf = _timed(lex_normal_form, u)
    assert nf == _timed(lex_normal_form, v)
    assert _timed(trace_equivalent, u, nf)
    assert _timed(trace_equivalent, u, v)
    assert not _timed(trace_equivalent, u, TraceWord(g, other))


def test_lex_normal_form_stays_linear_where_letters_overtake_the_scan():
    # declared (a, b), every a is emitted ahead of the scan; declared (b, a), none
    g = IndependenceAlphabet(("a", "b"), [("a", "b")])
    u = TraceWord(g, ("b", "a") * 32_000)
    assert _timed(lex_normal_form, u).word == ("a",) * 32_000 + ("b",) * 32_000
    u = TraceWord(_declared(g, ("b", "a")), u.word)
    assert _timed(lex_normal_form, u).word == ("b",) * 32_000 + ("a",) * 32_000
    # over K(150, 150) a q waits behind up to 150 earlier p, the longest
    # candidate scan; the normal form is the p, then the q, in word order
    g = _complete_bipartite(150)
    w = tuple(random.Random(7).choice(g.letters) for _ in range(16_000))
    nf = _timed(lex_normal_form, TraceWord(_declared(g, sorted(g.letters)), w))
    assert nf.word == tuple(x for x in w if x[0] == "p") + tuple(x for x in w if x[0] == "q")


def test_trace_kernels_stay_linear_on_a_16000_letter_matching():
    # each letter has one independent partner and 15,999 dependent ones:
    # a table or a stack per dependent letter is O(|letters|^2), gigabytes
    letters = [f"l{i}" for i in range(16_000)]
    g = IndependenceAlphabet(letters, [(letters[i], letters[i + 1]) for i in range(0, 16_000, 2)])
    rng = random.Random(5)
    w = tuple(rng.choice(letters) for _ in range(64_000))
    same = _swap_independent(g, w, rng, 128_000)
    i = next(i for i in range(len(w) - 1) if w[i] != w[i + 1] and not g.independent(w[i], w[i + 1]))
    u, v, other = TraceWord(g, w), TraceWord(g, same), TraceWord(g, w[:i] + (w[i + 1], w[i]) + w[i + 2:])
    nf = _timed(lex_normal_form, u)
    assert _timed(trace_equivalent, u, v)
    assert not _timed(trace_equivalent, u, other)
    # once more under tracemalloc, which slows them several times over
    for f, args in ((lex_normal_form, (u,)), (trace_equivalent, (u, v))):
        tracemalloc.start()
        try:
            f(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < TRACE_PEAK_BYTES, (f.__name__, peak)
    assert nf == lex_normal_form(v) and trace_equivalent(u, nf) and lex_normal_form(nf) == nf
    # a letter and its partner commute, so the least member lists pairs in order
    assert all(g.rank(x) <= g.rank(y) or not g.independent(x, y) for x, y in zip(nf.word, nf.word[1:]))


def _child_max_rss_mb(code):
    """Run code in a fresh interpreter and return its whole-process peak
    resident size in MB, VmHWM, which the child reads of itself at the end.
    tracemalloc misses the transient copy of a moving realloc and memory
    the allocator keeps; the resident peak does not.  The child's
    RUSAGE_SELF ru_maxrss would not do: Linux carries the peak of the
    process that started it over the exec, so under pytest a 25 MB child
    read 46.6 MB."""
    code += "\nimport pathlib\nprint(pathlib.Path('/proc/self/status').read_text().split('VmHWM:')[1].split()[0])\n"
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout.split()[-1]) / 1024  # VmHWM counts kB


def test_trace_kernels_peak_rss_on_a_16000_letter_matching():
    peak = _child_max_rss_mb(
        "import random\n"
        "from quemon import IndependenceAlphabet, TraceWord, lex_normal_form, trace_equivalent\n"
        "letters = [f'l{i}' for i in range(16_000)]\n"
        "g = IndependenceAlphabet(letters, [(letters[i], letters[i + 1]) for i in range(0, 16_000, 2)])\n"
        "rng = random.Random(5)\n"
        "u = TraceWord(g, tuple(rng.choice(letters) for _ in range(64_000)))\n"
        "assert trace_equivalent(u, lex_normal_form(u))\n"
    )
    assert peak < TRACE_MAX_RSS_MB, f"peaked at {peak:.1f} MB"


def test_queue_kernels_peak_rss_on_the_deep_fallback_words():
    # the words of test_kernels_stay_linear_at_64000_actions; the swap is
    # the rule a b ~c -> a ~c b, so equivalent pays both normal forms
    peak = _child_max_rss_mb(
        "from quemon import equivalent, normal_form, overlap\n"
        "u = ('a',) * 64_000\n"
        "v = ('a',) * 32_000 + ('b',) + ('a',) * 32_000\n"
        "assert overlap(u, v) == ('a',) * 32_000\n"
        "deep = v + tuple('~' + x for x in u)\n"
        "assert normal_form(deep).center == ('a',) * 32_000\n"
        "assert equivalent(deep, deep[:64_000] + ('~a', 'a') + deep[64_002:])\n"
    )
    assert peak < QUEUE_MAX_RSS_MB, f"peaked at {peak:.1f} MB"


def test_decide_embeddable_stays_linear_at_16000_letters():
    k = 16_000
    letters = [f"l{i}" for i in range(k + 1)]
    cycle = IndependenceAlphabet(letters, [(letters[i], letters[i + 1]) for i in range(k)] + [(letters[k], letters[0])])
    verdict = _timed(decide_embeddable, cycle)
    assert isinstance(verdict, NotEmbeddable) and isinstance(verdict.reason.witness, OddCycle)
    assert len(verdict.reason.witness.vertices) == k + 1

    # K_{2,k-2} with one pair missing, then the same core among isolated letters
    core, rest = letters[:2], letters[2:k]
    edges = [(a, b) for a in core for b in rest if (a, b) != (letters[1], letters[k - 1])]
    verdict = _timed(decide_embeddable, IndependenceAlphabet(letters[:k], edges))
    assert verdict == NotEmbeddable(NotCompleteBipartite(MissingPair((letters[1], letters[k - 1]))))
    edges = [(a, b) for a in core for b in rest[: k // 2]]
    verdict = _timed(decide_embeddable, IndependenceAlphabet(letters[:k], edges))
    assert isinstance(verdict, Embeddable)
    assert verdict.recipe.part1 == tuple(core) and len(verdict.recipe.isolated) == k - 2 - k // 2


def test_verify_embedding_bounded_runs_per_class_on_k33_at_7():
    # 335,923 words fall into 24,604 classes; keying and imaging every word
    # takes seconds and peaks at 146 MB under tracemalloc
    g = IndependenceAlphabet("abcdef", [(x, y) for x in "abc" for y in "def"])
    images = letter_images(g)
    want = (True, 335_923, 24_604, None, "")
    assert _timed(verify_embedding_bounded, g, images, 7) == want
    tracemalloc.start()
    try:
        report = verify_embedding_bounded(g, images, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == want
    assert peak < VERIFY_PEAK_BYTES, peak


def test_embedding_is_built_once_per_alphabet_at_4000_letters():
    # a P3 among isolated letters, a matching and a free alphabet; checking
    # the bipartite recipe pair by pair, on every call and for every letter,
    # took 1.2 s for one embedding here and tens of minutes for the table,
    # and building every image on the first call stores 8 million letters
    letters = [f"l{i}" for i in range(4_000)]
    last = ("a",) * 3_999 + ("b",)
    half = ("a",) * 1_999 + ("b",)
    p3 = [("l0", "l1"), ("l0", "l2")]
    matching = [(f"l{i}", f"l{i + 1}") for i in range(0, 4_000, 2)]
    for edges, want in ((p3, ProductWord(last, last)),
                        (matching, ProductWord(half, half + half)),
                        ([], ProductWord(last, last))):
        g = IndependenceAlphabet(letters, edges)
        assert _timed(embed_to_two_free, g, TraceWord(g, ("l3999",))) == want
        assert len(embed._IMAGES[g]) == 1  # only the image the word used
        images = _timed(letter_images, IndependenceAlphabet(letters, edges))
        assert len(images) == 4_000 and images["l3999"] == want
    assert images["l0"] == ProductWord(("b",), ("b",))
    g = IndependenceAlphabet(letters, p3)
    images = _timed(letter_images, g)
    assert images["l0"] == ProductWord(("b",), ()) and images["l2"] == ProductWord((), ("a", "a", "b"))
