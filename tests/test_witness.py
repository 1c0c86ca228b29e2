"""Witness equations: the exact solver, the four builders, their reports."""

import contextlib
import itertools
import random
import sys
import time
import tracemalloc
from collections import Counter
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from quemon import (
    ConjugacyDecomposition,
    InternalError,
    PreconditionError,
    QueueNormalForm,
    VerificationFailedError,
    WitnessReport,
    conjugated_witness,
    equivalent,
    format_word,
    nonconjugated_witness,
    normal_form,
    p2p3_witness,
    p4_witness,
    parse_queue_word,
    parse_word,
    power_exponent,
)
from quemon import witness
from quemon.witness import (
    _ROTATIONS,
    _common_root_exponents,
    _conjugacy_profile,
    _dominating_shift,
    _long_enough_shift,
    _mixed_exponent,
    _p2p3_exponents,
    _normal_forms,
    _PowerProduct,
    _sides_agree,
    _solve_projection_system,
    _verify,
)

from batteries import (
    CONJUGATED_BATTERY,
    NONCONJUGATED_BATTERY,
    P2P3_BATTERY,
    P4_BATTERY,
)
from oracles import (
    enlarge_until_long,
    fraction_kernel_vector,
    kernel_p2p3_exponents,
    nf_to_queue_word,
    project_neg,
    project_pos,
    raise_until_dominant,
)

P = parse_queue_word


# -- the projection-length solver ------------------------------------------------

def test_solver_examples():
    x, y = _solve_projection_system((1, 1, 1), (1, 1, 1))
    assert x == (1, 0, 0)
    assert y == (0, 1, 0)
    x, y = _solve_projection_system((1, 2, 3), (3, 2, 1), min_entry=2)
    assert x == (3, 2, 3)
    assert y == (2, 4, 2)


coeff = st.integers(min_value=1, max_value=9)


@given(st.tuples(coeff, coeff, coeff), st.tuples(coeff, coeff, coeff),
       st.integers(min_value=0, max_value=3))
def test_solver_invariants(a, b, min_entry):
    x, y = _solve_projection_system(a, b, min_entry)
    assert x != y
    assert all(e >= min_entry for e in x + y)
    assert sum(ai * xi for ai, xi in zip(a, x)) == sum(ai * yi for ai, yi in zip(a, y))
    assert sum(bi * xi for bi, xi in zip(b, x)) == sum(bi * yi for bi, yi in zip(b, y))


# -- closed forms against the elimination and enlargement oracles -------------------

def _kernel_split(a, b, min_entry):
    """Solver output rebuilt from the Gaussian-elimination oracle."""
    z = fraction_kernel_vector([a, b], 3)
    return (tuple(max(e, 0) + min_entry for e in z),
            tuple(max(-e, 0) + min_entry for e in z))


def test_solver_matches_gaussian_elimination_on_every_small_row_pair():
    rows = list(itertools.product(range(7), repeat=3))
    for a in rows:
        for b in rows:
            if any(a) or any(b):
                assert _solve_projection_system(a, b) == _kernel_split(a, b, 0), (a, b)


signed = st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3)


@settings(max_examples=500)
@given(signed, signed, st.integers(min_value=0, max_value=3))
def test_solver_matches_gaussian_elimination_on_signed_rows(a, b, min_entry):
    if any(a) or any(b):
        assert _solve_projection_system(a, b, min_entry) == _kernel_split(a, b, min_entry)


def test_p2p3_exponents_match_the_kernel_of_the_3x4_system():
    nonproportional = 0
    for a_v, a_w, b_v, b_w in itertools.product(range(9), repeat=4):
        x_v, x_w = _p2p3_exponents(a_v, a_w, b_v, b_w)
        assert kernel_p2p3_exponents(a_v, a_w, b_v, b_w) == (x_v, x_w, x_v, x_w)
        nonproportional += a_v > 0 and a_w > 0 and a_v * b_w != a_w * b_v
    assert nonproportional == 4_960


def test_nonconjugated_shift_matches_the_enlargement_loop():
    positive = list(itertools.product(range(1, 5), repeat=3))
    for a in positive:
        for b in positive:
            x0, y0 = _solve_projection_system(a, b)
            for len_p, len_q in itertools.product(range(1, 5), repeat=2):
                assert (_long_enough_shift(a, b, x0, y0, len_p, len_q)
                        == enlarge_until_long(a, b, x0, y0, len_p, len_q)), (a, b, len_p, len_q)


def test_conjugated_shift_matches_the_row_loop():
    rng = random.Random(7)
    checked = 0
    while checked < 5_000:
        profiles = tuple((rng.randint(1, 9), rng.randint(1, 9), rng.randint(-1, 20))
                         for _ in range(3))
        x0, y0 = _solve_projection_system([p[0] for p in profiles], [p[1] for p in profiles], 2)
        for coord in (0, 2):
            a, b, _ = profiles[coord]
            # the first factor is raised when it writes more than it reads,
            # the last when it reads more than it writes
            if (a > b) if coord == 0 else (a < b):
                assert (_dominating_shift(profiles, x0, y0, coord)
                        == raise_until_dominant(profiles, x0, y0, coord)), profiles
                checked += 1


def test_every_battery_report_matches_the_oracle_exponents():
    for u, v, w in P2P3_BATTERY:
        a_v, a_w = _common_root_exponents(project_pos(v), project_pos(w))
        b_v, b_w = _common_root_exponents(project_neg(v), project_neg(w))
        x_v, x_w, y_v, y_w = kernel_p2p3_exponents(a_v, a_w, b_v, b_w)
        r = p2p3_witness(u, v, w)
        assert (r.x[1:], r.y[1:]) == ((x_v, x_w), (y_v, y_w))

    for u, v, w, p, q in NONCONJUGATED_BATTERY:
        a = tuple(power_exponent(project_pos(x), p) for x in (u, v, w))
        b = tuple(power_exponent(project_neg(x), q) for x in (u, v, w))
        x0, y0 = _kernel_split(a, b, 0)
        n = enlarge_until_long(a, b, x0, y0, len(p), len(q))
        r = nonconjugated_witness(u, v, w, p, q)
        assert r.x == tuple(e + n for e in x0) and r.y == tuple(e + n for e in y0)

    for u, v, w, dec, rotation in CONJUGATED_BATTERY:
        idx = dict(_ROTATIONS)[rotation]
        rprof = [_conjugacy_profile(normal_form((u, v, w)[i]), dec) for i in idx]
        x0, y0 = _kernel_split([p[0] for p in rprof], [p[1] for p in rprof], 2)
        if all(p[0] == p[1] for p in rprof):
            coord, k = 0, 0
        else:
            coord = 0 if rprof[0][0] > rprof[0][1] else 2
            k = raise_until_dominant(rprof, x0, y0, coord)
        r = conjugated_witness(u, v, w, dec)
        assert r.kind == f"conjugated:{rotation}"
        assert r.x == tuple(e + k * (i == coord) for i, e in enumerate(x0))
        assert r.y == tuple(e + k * (i == coord) for i, e in enumerate(y0))


def test_conjugated_far_from_row_domination_is_solved_directly():
    # the first factor must be raised by about a million before its row is
    # the least; stepping there one at a time stopped at a cap of 10**6
    dec = ConjugacyDecomposition((), ("a",))
    u, v, w = P("aa~a"), P("a" + "~a" * 1002), P("a" * 1002 + "~a")
    start = time.perf_counter()
    r = conjugated_witness(u, v, w, dec)
    elapsed = time.perf_counter() - start
    assert r.verified and r.kind == "conjugated:trivial"
    assert r.x == (2_007_005, 2, 2) and r.y == (1_003_002, 1_002, 2_005)
    assert elapsed < 60, f"took {elapsed:.1f}s"  # about 0.5 s


# -- write-block against two commuting factors ------------------------------------

def test_p2p3_anchor_values():
    r = p2p3_witness(P("a"), P("~c"), P("~c~c"))
    assert r.kind == "p2p3"
    assert r.x == (1, 1, 0) and r.y == (1, 1, 0)
    assert r.verified

    r = p2p3_witness(P("a"), P("b~c"), P("bb~c~c"))
    assert r.x == (8, 4, 2) and r.y == (8, 4, 2)

    r = p2p3_witness(P("a"), P("b~c"), P("bb~c"))
    assert r.x == (3, 2, 1) and r.y == (3, 2, 1)


def test_p2p3_sides_differ_but_are_equivalent():
    r = p2p3_witness(P("a"), P("b~c"), P("bb~c~c"))
    assert r.lhs != r.rhs
    assert equivalent(r.lhs, r.rhs)
    x_u, x_v, x_w = r.x
    u, v, w = P("a"), P("b~c"), P("bb~c~c")
    assert r.lhs == u * x_u + v * x_v + u + w * x_w
    assert r.rhs == u * x_u + w * r.y[2] + u + v * r.y[1]


def test_p2p3_battery():
    for u, v, w in P2P3_BATTERY:
        r = p2p3_witness(u, v, w)
        assert r.verified and r.kind == "p2p3"
        assert r.x[1] + r.x[2] > 0


def test_p2p3_preconditions():
    with pytest.raises(PreconditionError, match="commute"):
        p2p3_witness(P("a"), P("b"), P("c"))
    with pytest.raises(PreconditionError, match="read"):
        p2p3_witness(P("~a"), P("b"), P("~c"))
    with pytest.raises(PreconditionError, match="inequivalent"):
        p2p3_witness(P("a"), P("b"), P("b"))
    with pytest.raises(PreconditionError, match="nonempty"):
        p2p3_witness(P("a"), (), P("b"))


# -- three factors over non-conjugate roots ----------------------------------------

def test_nonconjugated_anchor_values():
    u = P("a~b")
    r = nonconjugated_witness(u, u, u, ("a",), ("b",))
    assert r.kind == "nonconjugated"
    assert r.x == (3, 2, 2)
    assert r.y == (2, 3, 2)
    assert r.verified


def test_nonconjugated_equal_factors_give_syntactically_equal_sides():
    u = P("a~b")
    r = nonconjugated_witness(u, u, u, ("a",), ("b",))
    assert r.x != r.y
    assert r.lhs == r.rhs
    assert sum(r.x) == sum(r.y)


def test_nonconjugated_battery():
    for u, v, w, p, q in NONCONJUGATED_BATTERY:
        r = nonconjugated_witness(u, v, w, p, q)
        assert r.verified and r.kind == "nonconjugated"
        assert r.x != r.y


def test_nonconjugated_preconditions():
    u = P("ab~a")
    with pytest.raises(PreconditionError, match="conjugate"):
        nonconjugated_witness(u, u, u, ("a", "b"), ("b", "a"))
    with pytest.raises(PreconditionError, match="primitive"):
        nonconjugated_witness(u, u, u, ("a", "a"), ("b",))
    with pytest.raises(PreconditionError, match="power"):
        nonconjugated_witness(P("b~a"), u, u, ("a", "b"), ("a",))
    with pytest.raises(PreconditionError, match="power"):
        nonconjugated_witness(P("ab"), u, u, ("a", "b"), ("a",))


# -- three factors over conjugate roots --------------------------------------------

def test_conjugacy_profile_examples():
    dec = ConjugacyDecomposition((), ("a",))
    assert _conjugacy_profile(normal_form(P("a~a")), dec) == (1, 1, 1)
    assert _conjugacy_profile(normal_form(P("~aa")), dec) == (1, 1, 0)
    assert _conjugacy_profile(normal_form(P("a~aa")), dec) == (2, 1, 1)

    dec = ConjugacyDecomposition(parse_word("a"), parse_word("b"))
    assert _conjugacy_profile(normal_form(P("~b~aab")), dec) == (1, 1, -1)
    assert _conjugacy_profile(normal_form(P("~ba~ab")), dec) == (1, 1, 0)
    assert _conjugacy_profile(normal_form(P("~ba~abab")), dec) == (2, 1, 0)


def test_mixed_exponent_examples():
    assert _mixed_exponent([(1, 1, 0)] * 3, (2, 2, 2)) == 5
    assert _mixed_exponent([(1, 1, 1)] * 3, (2, 2, 2)) == 6


def test_conjugated_anchor_values():
    dec = ConjugacyDecomposition((), ("a",))
    u = P("a~a")
    r = conjugated_witness(u, u, u, dec)
    assert r.kind == "conjugated:trivial"
    assert r.x == (3, 2, 2)
    assert r.y == (2, 3, 2)

    r = conjugated_witness(P("a~aa"), P("a~a"), P("a~a"), dec)
    assert r.kind == "conjugated:trivial"
    assert r.x == (2, 3, 2)
    assert r.y == (2, 2, 3)


def test_conjugated_battery_covers_every_rotation():
    seen = set()
    for u, v, w, dec, rotation in CONJUGATED_BATTERY:
        r = conjugated_witness(u, v, w, dec)
        assert r.verified
        assert r.kind == f"conjugated:{rotation}"
        assert r.x != r.y
        seen.add(rotation)
    assert seen == {"trivial", "vwu", "wuv"}


def test_conjugated_rejects_foreign_projections():
    dec = ConjugacyDecomposition((), ("a",))
    with pytest.raises(PreconditionError, match="power"):
        conjugated_witness(P("b~a"), P("a~a"), P("a~a"), dec)


# -- one-sided equation for a path of four letters ----------------------------------

def test_p4_anchor_values():
    r = p4_witness(P("a"), P("a"), P("~b"), P("~b"))
    assert r.kind == "p4"
    assert r.x == (1, 3, 1, 1, 1)
    assert r.y is None
    assert format_word(r.lhs) == "aaa~b~ba~ba"
    assert format_word(r.rhs) == "aaa~ba~ba~b"

    # t's exponent in the equation is a_u and u's trailing exponent is a_t
    r = p4_witness(P("aa"), P("a"), P("~b"), P("~b~b"))
    assert r.x == (1, 6, 2, 2, 1)


def test_p4_battery():
    for t, u, v, w in P4_BATTERY:
        r = p4_witness(t, u, v, w)
        assert r.verified and r.kind == "p4"
        assert r.y is None
        assert len(r.x) == 5
        assert r.x[0] > 0 and r.x[4] > 0


def test_p4_preconditions():
    with pytest.raises(PreconditionError, match="write"):
        p4_witness(P("a"), P("a"), P("b~c"), P("~c"))
    with pytest.raises(PreconditionError, match="read"):
        p4_witness(P("a"), P("a~b"), P("~c"), P("~c"))
    with pytest.raises(PreconditionError, match="commute"):
        p4_witness(P("b"), P("a"), P("~c"), P("~c"))
    with pytest.raises(PreconditionError, match="commute"):
        p4_witness(P("a"), P("a"), P("~b"), P("~c"))
    with pytest.raises(PreconditionError, match="nonempty"):
        p4_witness((), P("a"), P("~b"), P("~b"))


# -- reports -------------------------------------------------------------------------

def test_report_json_shape():
    r = p2p3_witness(P("a"), P("~c"), P("~c~c"))
    payload = r.to_json()
    assert set(payload) == {"kind", "x", "y", "lhs", "rhs", "verified"}
    assert payload["kind"] == "p2p3"
    assert payload["x"] == [1, 1, 0]
    assert payload["y"] == [1, 1, 0]
    assert payload["verified"] is True
    assert isinstance(payload["lhs"], str) and isinstance(payload["rhs"], str)

    r = p4_witness(P("a"), P("a"), P("~b"), P("~b"))
    assert r.to_json()["y"] is None


def test_every_report_is_verified():
    reports = [
        p2p3_witness(*P2P3_BATTERY[0]),
        nonconjugated_witness(*NONCONJUGATED_BATTERY[0]),
        conjugated_witness(*CONJUGATED_BATTERY[0][:4]),
        p4_witness(*P4_BATTERY[0]),
    ]
    for r in reports:
        assert isinstance(r, WitnessReport)
        assert r.verified
        assert equivalent(r.lhs, r.rhs)


def test_a_side_of_a_million_actions_peaks_near_its_own_size():
    # the factor shapes of a conjugated witness: a short factor raised high
    # and two long ones, or all three raised far; concatenating the powers
    # one at a time holds the growing prefix next to its copy, twice the word
    factors = (P("aa~a"), P("a" + "~a" * 420), P("a" * 420 + "~a"))
    for exponents in ((340_000, 2, 2), (170_000, 420, 841)):
        tracemalloc.start()
        try:
            side = tuple(_PowerProduct(factors, exponents))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(side) >= 1_000_000
        assert side == sum(map(mul, factors, exponents), ())
        assert peak < 1.5 * sys.getsizeof(side), (exponents, peak, sys.getsizeof(side))



# -- what the builders pass the solver and the center formula ------------------

@contextlib.contextmanager
def _helpers_asserting_their_inputs():
    """Patch _solve_projection_system and _mixed_exponent with wrappers that
    assert what their builders guarantee and then call the real function;
    yields a Counter of the calls.  The helpers check none of this
    themselves: no input from outside reaches them unfiltered."""
    solve, mixed = witness._solve_projection_system, witness._mixed_exponent
    calls = Counter()

    def checked_solve(a, b, min_entry=0):
        assert len(a) == len(b) == 3, (a, b)
        assert min(*a, *b) >= 1, (a, b)  # so neither row is zero
        assert min_entry in (0, 2), min_entry
        calls["solve"] += 1
        return solve(a, b, min_entry)

    def checked_mixed(profiles, x):
        assert len(profiles) == 3 and all(len(p) == 3 for p in profiles), profiles
        assert all(a >= 1 and b >= 1 for a, b, _ in profiles), profiles
        assert len(x) == 3 and min(x) >= 2, x
        calls["mixed"] += 1
        return mixed(profiles, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "_solve_projection_system", checked_solve)
        mp.setattr(witness, "_mixed_exponent", checked_mixed)
        yield calls


def test_every_battery_entry_passes_the_helpers_what_they_assume():
    with _helpers_asserting_their_inputs() as calls:
        reports = [p2p3_witness(*args) for args in P2P3_BATTERY]
        reports += [p4_witness(*args) for args in P4_BATTERY]
        assert calls == Counter()  # neither builder solves a system
        reports += [nonconjugated_witness(*args) for args in NONCONJUGATED_BATTERY]
        reports += [conjugated_witness(*args[:4]) for args in CONJUGATED_BATTERY]
    assert calls == Counter(solve=len(NONCONJUGATED_BATTERY) + len(CONJUGATED_BATTERY),
                            mixed=2 * len(CONJUGATED_BATTERY))
    assert all(r.verified for r in reports)


@st.composite
def _factor(draw, p, q):
    """A queue word writing p^a and reading q^b, a and b in 1..3, its
    writes and reads interleaved at random."""
    writes = list(p * draw(st.integers(min_value=1, max_value=3)))
    reads = ["~" + x for x in q * draw(st.integers(min_value=1, max_value=3))]
    order = draw(st.permutations([True] * len(writes) + [False] * len(reads)))
    ws, rs = iter(writes), iter(reads)
    return tuple(next(ws) if w else next(rs) for w in order)


@st.composite
def _three_factors(draw, roots):
    p, q = draw(st.sampled_from(roots))
    return (*(draw(_factor(p, q)) for _ in range(3)), p, q)


NONCONJUGATE_ROOTS = [(("a",), ("b",)), (("a", "b"), ("a",)), (("a", "b"), ("a", "c")),
                      (("a", "b"), ("a", "a", "b"))]
DECOMPOSITIONS = [ConjugacyDecomposition((), ("a",)), ConjugacyDecomposition(("a",), ("b",)),
                  ConjugacyDecomposition(("a",), ("a", "b"))]


@settings(max_examples=60, deadline=None)
@given(_three_factors(NONCONJUGATE_ROOTS))
def test_random_nonconjugated_inputs_pass_the_solver_what_it_assumes(args):
    with _helpers_asserting_their_inputs() as calls:
        assert nonconjugated_witness(*args).verified
    assert calls == Counter(solve=1)


@settings(max_examples=60, deadline=None)
@given(_three_factors([(dec.p, dec.q) for dec in DECOMPOSITIONS]))
def test_random_conjugated_inputs_pass_the_helpers_what_they_assume(args):
    u, v, w, p, q = args
    dec = next(dec for dec in DECOMPOSITIONS if (dec.p, dec.q) == (p, q))
    with _helpers_asserting_their_inputs() as calls:
        assert conjugated_witness(u, v, w, dec).verified
    assert calls == Counter(solve=1, mixed=2)


# -- the side check against equivalent on the flat sides ------------------------

def _flat(side):
    return tuple(_PowerProduct(*side))


def _agrees_like_equivalent(lhs, rhs):
    forms = _normal_forms(*lhs[0], *rhs[0])
    return _sides_agree(forms, lhs, rhs) == equivalent(_flat(lhs), _flat(rhs))


def _same_projection_words(w):
    """A normal-form word of every class with the projections of w, its own
    class included: one per center that is a suffix of neg and a prefix of
    pos."""
    nf = normal_form(w)
    neg, pos = nf.neg(), nf.pos()
    return [nf_to_queue_word(QueueNormalForm(neg[:len(neg) - k], pos[:k], pos[k:]))
            for k in range(min(len(neg), len(pos)) + 1) if neg[len(neg) - k:] == pos[:k]]


def _battery_sides():
    """(lhs, rhs) of every battery equation, each (factors, exponents), as
    the builders pass them to _sides_agree."""
    sides = []

    def record(forms, lhs, rhs):
        sides.append((lhs, rhs))
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness, "_sides_agree", record)
        for args in P2P3_BATTERY:
            p2p3_witness(*args)
        for args in NONCONJUGATED_BATTERY:
            nonconjugated_witness(*args)
        for args in CONJUGATED_BATTERY:
            conjugated_witness(*args[:4])
        for args in P4_BATTERY:
            p4_witness(*args)
    return sides


def test_side_check_equals_equivalent_on_every_battery_entry():
    sides = _battery_sides()
    assert len(sides) == (len(P2P3_BATTERY) + len(NONCONJUGATED_BATTERY)
                          + len(CONJUGATED_BATTERY) + len(P4_BATTERY))
    for lhs, rhs in sides:
        assert _sides_agree(_normal_forms(*lhs[0], *rhs[0]), lhs, rhs), (lhs, rhs)
        assert _agrees_like_equivalent(lhs, rhs), (lhs, rhs)
        # every single exponent moved by one, on either side
        for i, e in enumerate(rhs[1]):
            for d in (-1, 1) if e else (1,):
                moved = rhs[1][:i] + (e + d,) + rhs[1][i + 1:]
                assert _agrees_like_equivalent(lhs, (rhs[0], moved)), (lhs, rhs, i, d)
                assert _agrees_like_equivalent((rhs[0], moved), lhs), (lhs, rhs, i, d)
        # the flat lhs against every class that shares its projections
        for word in _same_projection_words(_flat(lhs)):
            assert _agrees_like_equivalent(rhs, ((word,), (1,))), (lhs, rhs, word)


SMALL_FACTORS = [w for n in range(1, 4) for w in itertools.product(("a", "b", "~a", "~b"), repeat=n)]


def test_side_check_equals_equivalent_on_two_small_powers_against_each_class_of_their_projections():
    # every side f^e g^d with f, g of 1 to 3 actions over {a, b} and e, d
    # in 0..3, against each class sharing its neg and pos: its own class
    # and every other center
    forms = _normal_forms(*SMALL_FACTORS)
    checked = equivalent_pairs = 0
    for f, g in itertools.product(SMALL_FACTORS, repeat=2):
        for e, d in itertools.product(range(4), repeat=2):
            lhs = ((f, g), (e, d))
            flat = _flat(lhs)
            for word in _same_projection_words(flat):
                if word not in forms:
                    forms[word] = normal_form(word)
                got = _sides_agree(forms, lhs, ((word,), (1,)))
                assert got == equivalent(flat, word), (lhs, word)
                checked += 1
                equivalent_pairs += got
    assert (checked, equivalent_pairs) == (194_082, 112_896)


_small_factor = st.lists(st.sampled_from(("a", "b", "~a", "~b")), min_size=1, max_size=4).map(tuple)


@st.composite
def _power_product(draw):
    """Up to six powers of factors of 1 to 4 actions, exponents up to 50."""
    factors = tuple(draw(st.lists(_small_factor, min_size=1, max_size=6)))
    exponents = tuple(draw(st.lists(st.integers(min_value=0, max_value=50),
                                    min_size=len(factors), max_size=len(factors))))
    return factors, exponents


@st.composite
def _side_pairs(draw):
    """A product of powers and a second side: another product, the first
    with one exponent moved, the first with each power split in two, or a
    class sharing the first side's projections."""
    lhs = draw(_power_product())
    factors, exponents = lhs
    how = draw(st.sampled_from(("other", "moved", "split", "same projections")))
    if how == "other":
        rhs = draw(_power_product())
    elif how == "moved":
        i = draw(st.integers(min_value=0, max_value=len(factors) - 1))
        e = max(0, exponents[i] + draw(st.sampled_from((-1, 1))))
        rhs = (factors, exponents[:i] + (e,) + exponents[i + 1:])
    elif how == "split":
        cuts = [draw(st.integers(min_value=0, max_value=e)) for e in exponents]
        rhs = (tuple(f for f in factors for _ in (0, 1)),
               tuple(x for e, c in zip(exponents, cuts) for x in (c, e - c)))
    else:
        rhs = ((draw(st.sampled_from(_same_projection_words(_flat(lhs)))),), (1,))
    return lhs, rhs


@settings(max_examples=300, deadline=None)
@given(_side_pairs())
def test_side_check_equals_equivalent_on_products_of_up_to_six_powers(pair):
    lhs, rhs = pair
    assert _agrees_like_equivalent(lhs, rhs)
    assert _agrees_like_equivalent(rhs, lhs)


@pytest.mark.parametrize("kind, builder, args", [
    ("p2p3", p2p3_witness, P2P3_BATTERY[7]),
    ("nonconjugated", nonconjugated_witness, NONCONJUGATED_BATTERY[1]),
    ("conjugated", conjugated_witness, CONJUGATED_BATTERY[5][:4]),
    ("p4", p4_witness, P4_BATTERY[1]),
])
def test_one_changed_exponent_fails_verification(kind, builder, args):
    r = builder(*args)
    if kind == "p2p3":
        u, v, w = args
        factors = (u, v, u, w), (u, w, u, v)
        exponents = (r.x[0], r.x[1], 1, r.x[2]), (r.y[0], r.y[2], 1, r.y[1])
    elif kind == "p4":
        t, u, v, w = args
        x_t, x_u1, x_u2, x_v, x_w = r.x
        factors = (u, v, w, t, w, u), (u, w, u, w, t, v)
        exponents = (x_u1, x_v, 1, x_t, x_w, x_u2), (x_u1, 1, x_u2, x_w, x_t, x_v)
    else:
        idx = dict(_ROTATIONS)[r.kind.split(":")[1]] if kind == "conjugated" else (0, 1, 2)
        words = tuple(args[i] for i in idx)
        factors, exponents = (words, words), (r.x, r.y)
    forms = _normal_forms(*factors[0], *factors[1])
    lhs, rhs = (factors[0], exponents[0]), (factors[1], exponents[1])
    assert _flat(lhs) == r.lhs and _flat(rhs) == r.rhs
    assert _verify(r.kind, r.x, r.y, forms, lhs, rhs) == r
    for i in range(len(exponents[1])):
        moved = exponents[1][:i] + (exponents[1][i] + 1,) + exponents[1][i + 1:]
        with pytest.raises(VerificationFailedError, match=f"^{r.kind} equation failed"):
            _verify(r.kind, r.x, r.y, forms, lhs, (factors[1], moved))


@pytest.mark.parametrize("helper, trivial, builder, args, message", [
    ("_p2p3_exponents", lambda *a: (0, 0), p2p3_witness, P2P3_BATTERY[0],
     "trivial exponents"),
    ("_solve_projection_system", lambda a, b, min_entry: ((2, 2, 2), (2, 2, 2)),
     nonconjugated_witness, NONCONJUGATED_BATTERY[0], "collapsed"),
    ("_solve_projection_system", lambda a, b, min_entry: ((2, 2, 2), (2, 2, 2)),
     conjugated_witness, CONJUGATED_BATTERY[0][:4], "collapsed"),
    ("_common_root_exponents", lambda first, second: (0, 0), p4_witness, P4_BATTERY[0],
     "trivial exponents"),
], ids=["p2p3", "nonconjugated", "conjugated", "p4"])
def test_a_trivial_equation_is_refused_before_it_is_checked(
    monkeypatch, helper, trivial, builder, args, message
):
    # each side can hold up to 10^7 actions, so the nontriviality check runs
    # before _verify builds or checks anything
    def check(*_):
        raise AssertionError("a trivial equation reached its check")

    monkeypatch.setattr(witness, helper, trivial)
    monkeypatch.setattr(witness, "_sides_agree", check)
    with pytest.raises(InternalError, match=message):
        builder(*args)


def test_sides_with_equal_projections_and_different_centers_fail_verification():
    # a ~a and ~a a read and write the same letter; only the first has a center
    lhs, rhs = ((P("a~a"),), (3,)), ((P("~aa"),), (3,))
    forms = _normal_forms(P("a~a"), P("~aa"))
    with pytest.raises(VerificationFailedError,
                       match=r"^k equation failed its normal-form check: a~aa~aa~a vs ~aa~aa~aa$"):
        _verify("k", (3,), (3,), forms, lhs, rhs)


# -- a report's sides: sequences held as factors and exponents ---------------------

def _battery_reports():
    return ([p2p3_witness(*args) for args in P2P3_BATTERY]
            + [nonconjugated_witness(*args) for args in NONCONJUGATED_BATTERY]
            + [conjugated_witness(*args[:4]) for args in CONJUGATED_BATTERY]
            + [p4_witness(*args) for args in P4_BATTERY])


_SLICES = [slice(None), slice(1, None), slice(None, -1), slice(None, None, -1),
           slice(2, 7, 2), slice(-5, None), slice(None, None, 3), slice(3, 1)]


def _assert_acts_as_its_flat_tuple(side):
    flat = sum(map(mul, side.factors, side.exponents), ())
    n = len(flat)
    assert len(side) == n
    assert tuple(side) == flat and list(iter(side)) == list(flat)
    assert [side[i] for i in range(-n, n)] == list(flat + flat)
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            side[i]
    with pytest.raises(TypeError):
        side["0"]
    for s in _SLICES:
        assert side[s] == flat[s] and type(side[s]) is tuple, s
    assert tuple(reversed(side)) == flat[::-1]
    assert side == flat and flat == side and not side != flat
    assert side != flat + ("a",) and flat + ("a",) != side
    assert side != list(flat) and list(flat) != side
    if flat:
        assert side != ("z",) + flat[1:] and side != flat[:-1] + ("z",)
    assert hash(side) == hash(flat)
    assert repr(side) == repr(flat)
    for got, want in ((side + ("a",), flat + ("a",)), (("a",) + side, ("a",) + flat),
                      (side + side, flat + flat)):
        assert got == want and type(got) is tuple
    with pytest.raises(TypeError):
        side + ["a"]


def test_every_battery_side_acts_as_its_flat_tuple():
    for r in _battery_reports():
        for side in (r.lhs, r.rhs):
            assert type(side) is _PowerProduct
            _assert_acts_as_its_flat_tuple(side)


@settings(max_examples=200, deadline=None)
@given(_power_product())
def test_a_product_of_up_to_six_powers_acts_as_its_flat_tuple(side):
    _assert_acts_as_its_flat_tuple(_PowerProduct(*side))


def test_products_with_other_factors_and_the_same_word_are_equal():
    a, ab = P("a"), P("ab")
    assert _PowerProduct((a, a), (2, 3)) == _PowerProduct((a,), (5,))
    assert _PowerProduct((ab, a), (2, 0)) == _PowerProduct((P("aba"), P("b")), (1, 1))
    assert _PowerProduct((a,), (5,)) != _PowerProduct((a,), (4,))
    assert _PowerProduct((ab,), (1,)) != _PowerProduct((P("ba"),), (1,))
    assert hash(_PowerProduct((a, a), (2, 3))) == hash(_PowerProduct((a,), (5,)))


def test_two_builds_of_a_witness_are_equal_without_building_their_sides(monkeypatch):
    # the benchmark compares each round's report with the first one; equal
    # factors and exponents decide that without expanding the powers
    reports, again = _battery_reports(), _battery_reports()
    assert [hash(r) for r in reports] == [hash(r) for r in again]
    assert [repr(r) for r in reports] == [repr(r) for r in again]

    def expanded(self):
        raise AssertionError("a side was expanded")

    monkeypatch.setattr(_PowerProduct, "__iter__", expanded)
    monkeypatch.setattr(_PowerProduct, "__reversed__", expanded)
    assert all(r is not s and r == s for r, s in zip(reports, again))


def test_every_battery_report_has_equivalent_sides():
    for r in _battery_reports():
        assert equivalent(r.lhs, r.rhs), r.kind
        assert equivalent(tuple(r.lhs), tuple(r.rhs)), r.kind
