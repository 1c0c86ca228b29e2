"""Word combinatorics: overlaps, roots, conjugacy, sandwich words.

Closed-form operations are checked against brute-force counterparts that
only use scanning and slicing, never the formulas under test.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quemon import words
from quemon import (
    ConjugacyDecomposition,
    EmptyWordError,
    NotPrimitiveError,
    PreconditionError,
    conjugacy_decomposition,
    is_primitive,
    overlap,
    power_exponent,
    primitive_root,
)

from oracles import divisor_primitive_root, overlap_gq, sandwich_form

AB = ("a", "b")


def words_up_to(n, alphabet=AB):
    for k in range(n + 1):
        yield from itertools.product(alphabet, repeat=k)


def brute_overlap(u, v):
    best = ()
    for k in range(1, min(len(u), len(v)) + 1):
        if u[len(u) - k:] == v[:k]:
            best = v[:k]
    return best


def is_factor_of_power(y, base, reps):
    big = base * reps
    return any(big[i: i + len(y)] == y for i in range(len(big) - len(y) + 1))


# -- overlap ------------------------------------------------------------------

def test_overlap_examples():
    assert overlap(("a", "b"), ("b", "a")) == ("b",)
    assert overlap(("a", "b", "c"), ()) == ()
    assert overlap((), ("a",)) == ()
    assert overlap(("a", "b", "a"), ("a", "b", "a")) == ("a", "b", "a")


def test_overlap_exhaustive_small():
    pool = list(words_up_to(6))
    for u in pool:
        for v in pool:
            assert overlap(u, v) == brute_overlap(u, v)


@given(
    st.lists(st.sampled_from(AB), max_size=8).map(tuple),
    st.lists(st.sampled_from(AB), max_size=8).map(tuple),
)
def test_overlap_is_maximal_common_suffix_prefix(u, v):
    x = overlap(u, v)
    k = len(x)
    assert u[len(u) - k:] == x if k else x == ()
    assert v[:k] == x
    for longer in range(k + 1, min(len(u), len(v)) + 1):
        assert u[len(u) - longer:] != v[:longer]


# -- primitive roots ----------------------------------------------------------

def test_primitive_root_examples():
    assert primitive_root(("a", "b", "a", "b")) == (("a", "b"), 2)
    assert primitive_root(("a",)) == (("a",), 1)
    assert primitive_root(("a", "a", "a")) == (("a",), 3)
    with pytest.raises(EmptyWordError):
        primitive_root(())


def test_primitive_root_exhaustive():
    for w in words_up_to(8):
        if not w:
            continue
        root, e = primitive_root(w)
        assert root * e == w
        # shortest-period oracle: no strictly shorter word generates w
        for d in range(1, len(root)):
            assert w[:d] * (len(w) // d) != w or len(w) % d != 0


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_primitive_root_matches_the_divisor_loop_on_every_word_up_to_12(k):
    # w^k for every word w over {a, b}: each prime of k is one more step of
    # the loop, and the exponent found is k times that of w
    for w in words_up_to(12):
        if w:
            root, e = divisor_primitive_root(w)
            assert primitive_root(w * k) == divisor_primitive_root(w * k) == (root, e * k), w


# lengths with many prime factors, and with high powers of a few
_COMPOSITE_EXPONENTS = [1, 2, 6, 12, 30, 60, 64, 81, 210, 360, 720, 840, 1024, 2310, 2520]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=12).map(tuple),
    st.sampled_from(_COMPOSITE_EXPONENTS),
    st.sampled_from(("power", "last changed", "middle changed", "first changed")),
)
def test_primitive_root_matches_the_divisor_loop_on_powers(r, k, how):
    w = r * k
    i = {"power": None, "last changed": -1, "middle changed": len(w) // 2,
         "first changed": 0}[how]
    if i is not None:
        w = w[:i] + ("d",) + w[i:][1:]
    assert primitive_root(w) == divisor_primitive_root(w)


def test_primitive_root_makes_few_checks_at_a_highly_composite_length(monkeypatch):
    # 720,720 = 2^4 3^2 5 7 11 13 has 240 divisors, which the divisor loop
    # checks in turn; taking each prime out of the root makes at most
    # Omega(n) = 10 checks that pass and omega(n) = 6 that fail
    calls = []
    has_period = words._has_period

    def counted(u, d):
        calls.append(d)
        return has_period(u, d)

    monkeypatch.setattr(words, "_has_period", counted)
    n = 720_720
    root = tuple("abcdefghij")
    # b at every position n/q - 1 and at the end: the last letter of each
    # candidate root matches the last letter of the word
    marked = ["a"] * n
    for q in (2, 3, 5, 7, 11, 13):
        marked[n // q - 1] = "b"
    marked[-1] = "b"
    marked = tuple(marked)
    for w, want in (
        (("a",) * n, (("a",), n)),
        (("a",) * (n - 1) + ("b",), None),
        (("b",) + ("a",) * (n - 2) + ("b",), None),
        (root * (n // 10), (root, n // 10)),
        (marked, None),
    ):
        calls.clear()
        assert primitive_root(w) == (want or (w, 1))
        assert 0 < len(calls) <= 10 + 6, calls


def test_is_primitive_matches_rotation_criterion():
    # w is primitive iff it occurs in ww only at the two trivial positions
    for w in words_up_to(8):
        if not w:
            assert not is_primitive(w)
            continue
        doubled = w + w
        inner = any(
            doubled[i: i + len(w)] == w for i in range(1, len(w))
        )
        assert is_primitive(w) == (not inner)


def test_power_exponent():
    assert power_exponent(("a", "b", "a", "b"), ("a", "b")) == 2
    assert power_exponent((), ("a", "b")) == 0
    assert power_exponent(("a",), ("a", "b")) is None
    assert power_exponent(("a", "b", "a"), ("a", "b")) is None
    assert power_exponent((), ()) == 0
    assert power_exponent(("a",), ()) is None


# -- conjugacy ----------------------------------------------------------------

def primitive_words_up_to(n, alphabet=AB):
    return [w for w in words_up_to(n, alphabet) if w and is_primitive(w)]


def all_decompositions(max_p):
    for p in primitive_words_up_to(max_p):
        for i in range(len(p)):
            yield ConjugacyDecomposition(p[:i], p[i:])


def test_conjugacy_decomposition_examples():
    dec = conjugacy_decomposition(("a", "b"), ("b", "a"))
    assert (dec.g, dec.h) == (("a",), ("b",))
    dec = conjugacy_decomposition(("a", "b"), ("a", "b"))
    assert (dec.g, dec.h) == ((), ("a", "b"))
    assert conjugacy_decomposition(("a",), ("b",)) is None
    assert conjugacy_decomposition(("a", "b", "b"), ("a", "b")) is None


def test_conjugacy_decomposition_rejects_imprimitive():
    with pytest.raises(NotPrimitiveError):
        conjugacy_decomposition(("a", "b"), ("a", "a"))
    with pytest.raises(NotPrimitiveError):
        conjugacy_decomposition(("a", "a"), ("a", "b"))
    with pytest.raises(EmptyWordError):
        conjugacy_decomposition((), ("a",))


def test_conjugacy_decomposition_exhaustive():
    pool = primitive_words_up_to(4)
    for p in pool:
        for q in pool:
            dec = conjugacy_decomposition(p, q)
            rotations = {p[i:] + p[:i] for i in range(len(p))}
            if q in rotations:
                assert dec is not None
                assert dec.g + dec.h == p
                assert dec.h + dec.g == q
                # minimal |g| among all valid splits
                for i in range(len(dec.g)):
                    assert p[i:] + p[:i] != q
            else:
                assert dec is None


def test_decomposition_validation():
    with pytest.raises(EmptyWordError):
        ConjugacyDecomposition(("a",), ())
    with pytest.raises(NotPrimitiveError):
        ConjugacyDecomposition(("a",), ("a",))
    dec = ConjugacyDecomposition(("a",), ("b",))
    assert dec.p == ("a", "b")
    assert dec.q == ("b", "a")


# -- words caught between powers of conjugate words ---------------------------

def test_sandwich_form_examples():
    dec = ConjugacyDecomposition(("a",), ("b",))
    assert sandwich_form(dec, ("a", "b", "a")) == 1
    assert sandwich_form(dec, ("b", "b")) is None
    unary = ConjugacyDecomposition((), ("a",))
    assert sandwich_form(unary, ("a", "a")) == 2
    with pytest.raises(PreconditionError):
        sandwich_form(dec, ("a",))


def test_sandwich_form_against_brute_force():
    """Words between powers of q and p have the shape g q^k, k = |y| // |q|."""
    for dec in all_decompositions(4):
        p, q = dec.p, dec.q
        seen = set()
        for reps in range(1, 5):
            for cut in range(len(q) * reps - len(q) + 1):
                y = (q * reps)[cut:]
                if y in seen:
                    continue
                seen.add(y)
                expected = None
                if any(y == (p * j)[: len(y)] for j in range(1, 6)):
                    expected = len(y) // len(q)
                got = sandwich_form(dec, y)
                assert got == expected, (dec, y)
                if expected is not None:
                    assert y == dec.g + q * expected == p * expected + dec.g
        # prefixes of powers of p that are not suffixes of powers of q
        for reps in range(1, 5):
            for ln in range(len(q), len(p) * reps + 1):
                y = (p * reps)[:ln]
                if y in seen:
                    continue
                seen.add(y)
                expected = None
                if any(
                    y == (q * j)[len(q) * j - len(y):] for j in range(1, 6)
                ):
                    expected = len(y) // len(q)
                assert sandwich_form(dec, y) == expected, (dec, y)


def test_sandwich_form_exhaustive_small_alphabet():
    for dec in all_decompositions(2):
        q = dec.q
        for y in words_up_to(6):
            if len(y) < len(q):
                continue
            is_suffix = any(
                y == (q * j)[len(q) * j - len(y):] for j in range(1, 8)
            )
            is_prefix = any(y == (dec.p * j)[: len(y)] for j in range(1, 8))
            expected = len(y) // len(q) if (is_suffix and is_prefix) else None
            assert sandwich_form(dec, y) == expected, (dec, y)


def test_overlap_gq_examples():
    dec = ConjugacyDecomposition(("a",), ("b",))
    assert overlap_gq(dec, ("b",), ("b",), 1, 2) == ("a", "b", "a")
    assert overlap_gq(dec, (), (), 0, 0) == ("a",)
    unary = ConjugacyDecomposition((), ("a",))
    assert overlap_gq(unary, (), (), 3, 2) == ("a", "a")


def test_overlap_gq_against_generic_overlap():
    for dec in all_decompositions(4):
        p, q = dec.p, dec.q
        for cut_p in range(1, len(p) + 1):
            p_suffix = p[cut_p:]
            for cut_q in range(len(q)):
                q_prefix = q[:cut_q]
                for i in range(5):
                    for j in range(5):
                        lhs = p_suffix + dec.g + q * i
                        rhs = p * j + dec.g + q_prefix
                        assert overlap_gq(dec, p_suffix, q_prefix, i, j) == overlap(
                            lhs, rhs
                        ), (dec, p_suffix, q_prefix, i, j)


def test_overlap_gq_preconditions():
    dec = ConjugacyDecomposition(("a",), ("b",))
    with pytest.raises(PreconditionError):
        overlap_gq(dec, ("a", "b"), (), 1, 1)  # not proper: whole p
    with pytest.raises(PreconditionError):
        overlap_gq(dec, ("a",), (), 1, 1)  # not a suffix of p at all
    with pytest.raises(PreconditionError):
        overlap_gq(dec, (), ("a",), 1, 1)  # not a prefix of q
    with pytest.raises(PreconditionError):
        overlap_gq(dec, (), (), -1, 0)


def test_common_factors_of_nonconjugate_powers_are_short():
    """Factors shared by p^m and q^m are shorter than |p| + |q|."""
    pool = primitive_words_up_to(4)
    for p in pool:
        for q in pool:
            if len(p) == len(q) and conjugacy_decomposition(p, q) is not None:
                continue
            bound = len(p) + len(q)
            big = p * 6
            for start in range(len(big)):
                for end in range(start + bound + 1, len(big) + 1):
                    y = big[start:end]
                    assert not is_factor_of_power(y, q, 6), (p, q, y)
