"""The linear queue and word kernels against their slow oracles.

normal_form, overlap, nf_power, action and conjugacy_decomposition are
checked against the quadratic versions in
oracles.py: exhaustively at small sizes, with hypothesis on longer words
over one to three letters (where centers get long), and on the edge cases
by hand.  The last test keeps every kernel linear: at 64,000 actions a
quadratic version takes minutes.
"""

import itertools
import time

from hypothesis import given, settings, strategies as st

from quemon import (
    BOTTOM,
    NF_IDENTITY,
    QueueNormalForm,
    action,
    conjugacy_decomposition,
    equivalent,
    is_primitive,
    nf_power,
    normal_form,
    overlap,
    primitive_root,
)
from quemon.words import prefix_function

from oracles import (
    fold_normal_form,
    iterated_nf_power,
    scan_conjugacy_split,
    scan_overlap,
    slicing_action,
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
    assert prefix_function(()) == []
    assert prefix_function(tuple("a")) == [0]
    assert prefix_function(tuple("aabaaab")) == [0, 1, 0, 1, 2, 2, 3]
    assert prefix_function(tuple("abcabcab")) == [0, 0, 0, 1, 2, 3, 4, 5]


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

    state = _timed(action, r * 16_000, reads * 10_000 + r * 11_334)
    assert state == r * 17_334

    # u matches v up to its b again and again, falling back each time
    u = ("a",) * 64_000
    v = ("a",) * 32_000 + ("b",) + ("a",) * 32_000
    assert _timed(overlap, u, v) == ("a",) * 32_000
