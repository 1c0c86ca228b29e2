"""Queue monoid: semantics, normal forms, multiplication, oracles, syntax.

The algebraic route (normal forms, closed-form multiplication) is checked
against the rewriting oracle and against the action semantics directly;
the oracles themselves are validated on frozen examples first.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quemon import (
    BOTTOM,
    NF_IDENTITY,
    CapExceededError,
    ParseError,
    PreconditionError,
    QueueNormalForm,
    action,
    equivalent,
    format_normal_form,
    format_state,
    format_word,
    multiply,
    nf_power,
    normal_form,
    parse_queue_word,
    parse_word,
    power_mu,
)

from oracles import (
    bfs_class_oracle,
    format_queue_word,
    generalized_shift,
    iterated_nf_power,
    mu,
    nf_to_queue_word,
    parse_normal_form,
    project_neg,
    project_pos,
    rewrite_nf_oracle,
    tokenize,
)

ACTIONS = ("a", "b", "~a", "~b")


def queue_words_up_to(n, actions=ACTIONS):
    for k in range(n + 1):
        yield from itertools.product(actions, repeat=k)


def queues_up_to(n, letters=("a", "b")):
    for k in range(n + 1):
        yield from itertools.product(letters, repeat=k)


P = parse_queue_word

queue_word_st = st.lists(st.sampled_from(ACTIONS), max_size=8).map(tuple)


# -- action semantics ---------------------------------------------------------

def test_action_examples():
    assert action(("a", "b"), P("~a")) == ("b",)
    assert action(("b",), P("~a")) is BOTTOM
    assert action((), P("ab~a")) == ("b",)
    assert action((), P("~a")) is BOTTOM
    assert action((), ()) == ()


def test_bottom_is_absorbing():
    assert action(BOTTOM, P("a")) is BOTTOM
    assert action(BOTTOM, ()) is BOTTOM
    assert action(("a",), P("~b a")) is BOTTOM


def test_projections():
    assert project_pos(P("a~ba")) == ("a", "a")
    assert project_neg(P("a~ba")) == ("b",)
    assert project_pos(()) == ()
    assert project_neg(()) == ()
    assert project_pos(P("~a~a")) == ()
    assert project_neg(P("~a~a")) == ("a", "a")


@given(queue_word_st, queue_word_st)
def test_projections_are_homomorphic(u, v):
    assert project_pos(u + v) == project_pos(u) + project_pos(v)
    assert project_neg(u + v) == project_neg(u) + project_neg(v)


# -- normal forms -------------------------------------------------------------

def test_normal_form_examples():
    assert normal_form(P("a~b")) == (("b",), (), ("a",))
    assert normal_form(P("a~a")) == ((), ("a",), ())
    assert normal_form(P("ab~b")) == (("b",), (), ("a", "b"))
    assert normal_form(()) == NF_IDENTITY


def test_mu_examples():
    assert mu(P("a~a")) == ("a",)
    assert mu(P("a")) == ()
    assert mu(P("~ba~ba")) == ()


def test_multiply_examples():
    x = multiply(normal_form(P("a~a")), normal_form(P("b~b")))
    assert x == ((), ("a", "b"), ())
    y = multiply(normal_form(P("~ba")), normal_form(P("~ba")))
    assert y == (("b", "b"), (), ("a", "a"))


@given(queue_word_st)
def test_identity_element(w):
    nf = normal_form(w)
    assert multiply(nf, NF_IDENTITY) == nf
    assert multiply(NF_IDENTITY, nf) == nf


@given(queue_word_st, queue_word_st, queue_word_st)
@settings(max_examples=60)
def test_multiply_is_associative(u, v, w):
    x, y, z = normal_form(u), normal_form(v), normal_form(w)
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_power_mu_examples():
    assert power_mu(normal_form(P("a~a")), 2) == ("a", "a")
    assert power_mu(normal_form(P("~ba")), 3) == ()
    x = normal_form(P("ab~a"))
    assert power_mu(x, 1) == mu(P("ab~a"))
    with pytest.raises(PreconditionError):
        power_mu(x, 0)
    with pytest.raises(PreconditionError):
        nf_power(x, -1)


@given(queue_word_st, st.integers(min_value=1, max_value=5))
@settings(max_examples=80)
def test_power_mu_matches_iterated_multiply(w, n):
    nf = normal_form(w)
    assert power_mu(nf, n) == iterated_nf_power(nf, n).center


def test_equivalent_examples():
    assert equivalent(P("a~b~c"), P("~ba~c"))
    assert equivalent(P("ab~c"), P("a~cb"))
    assert not equivalent(P("a~a"), P("~aa"))


def test_equivalent_matches_rewriting_on_all_pairs_up_to_4():
    # every ordered pair, equal and unequal lengths, against the classes of
    # the rewriting oracle: the early exits on length and on the kinds of
    # the first and last differing actions may never change the answer
    words = list(queue_words_up_to(4))
    cls = [rewrite_nf_oracle(w) for w in words]
    for u, cu in zip(words, cls):
        for v, cv in zip(words, cls):
            assert equivalent(u, v) == (cu == cv), (u, v)


# -- center shape -------------------------------------------------------------

@given(queue_word_st)
def test_center_is_suffix_of_neg_and_prefix_of_pos(w):
    nf = normal_form(w)
    c = nf.center
    neg, pos = project_neg(w), project_pos(w)
    assert nf.neg() == neg
    assert nf.pos() == pos
    assert neg[len(neg) - len(c):] == c if c else True
    assert pos[: len(c)] == c


# -- rewriting oracle ---------------------------------------------------------

def test_rewrite_examples():
    assert rewrite_nf_oracle(P("ab~b")) == P("~bab")
    assert rewrite_nf_oracle(P("~ba")) == P("~ba")
    # the read of c keeps moving left past the write of a as well:
    # a~b~c -> ~ba~c (second rule) -> ~b~ca (first rule), a fixpoint
    assert rewrite_nf_oracle(P("a~b~c")) == P("~b~ca")
    assert rewrite_nf_oracle(()) == ()


def test_rewrite_result_is_irreducible():
    for w in queue_words_up_to(4):
        r = rewrite_nf_oracle(w)
        assert rewrite_nf_oracle(r) == r


def test_bfs_class_examples():
    assert bfs_class_oracle(P("a~b")) == {P("a~b"), P("~ba")}
    assert bfs_class_oracle(()) == {()}
    assert bfs_class_oracle(P("ab~b")) == {P("ab~b"), P("a~bb"), P("~bab")}


def test_bfs_class_cap():
    with pytest.raises(CapExceededError):
        bfs_class_oracle(P("aa~a~a" * 4), cap=3)


def test_oracles_agree_with_normal_form_small():
    """Reduced-scope version of the exhaustive acceptance check."""
    for w in queue_words_up_to(4):
        nf = normal_form(w)
        assert nf_to_queue_word(nf) == rewrite_nf_oracle(w)
        cls = bfs_class_oracle(w)
        assert all(normal_form(v) == nf for v in cls)


# -- equivalence vs the action semantics --------------------------------------

def test_equivalent_words_act_identically():
    """Words with one normal form transform every bounded queue alike."""
    queues = list(queues_up_to(8))
    by_nf = {}
    for w in queue_words_up_to(4):
        by_nf.setdefault(normal_form(w), []).append(w)
    for nf, members in by_nf.items():
        rep = members[0]
        rep_sig = [action(q, rep) for q in queues]
        for other in members[1:]:
            assert [action(q, other) for q in queues] == rep_sig


def test_inequivalent_words_are_separated_by_short_queues():
    """At this scale, distinct classes differ on a queue of length <= 8."""
    queues = list(queues_up_to(8))
    sigs = {}
    for w in queue_words_up_to(4):
        nf = normal_form(w)
        if nf in sigs:
            continue
        sig = tuple(
            "B" if action(q, w) is BOTTOM else action(q, w) for q in queues
        )
        assert sig not in sigs.values(), w
        sigs[nf] = sig


@given(queue_word_st, queue_word_st)
@settings(max_examples=40)
def test_equivalence_soundness_sampled(u, v):
    if equivalent(u, v):
        for q in queues_up_to(min(len(u) + len(v), 8)):
            assert action(q, u) == action(q, v)


# -- block shifts -------------------------------------------------------------

def test_generalized_shift_examples():
    lhs, rhs, holds = generalized_shift(("a",), ("b",), ("a", "b"), "read-block")
    assert lhs == P("a~b~a~b")
    assert rhs == P("~ba~a~b")
    assert holds

    lhs, rhs, holds = generalized_shift(("a", "b"), ("c",), ("a",), "write-block")
    assert lhs == P("abc~a")
    assert rhs == P("ab~ac")
    assert holds

    lhs, rhs, holds = generalized_shift((), ("b",), (), "read-block")
    assert lhs == rhs == P("~b")
    assert holds


def test_generalized_shift_preconditions():
    with pytest.raises(PreconditionError):
        generalized_shift(("a", "b"), (), ("a",), "read-block")
    with pytest.raises(PreconditionError):
        generalized_shift(("a",), (), ("a", "b"), "write-block")
    with pytest.raises(PreconditionError):
        generalized_shift((), (), (), "sideways")


# -- text syntax --------------------------------------------------------------

def test_parse_queue_word():
    assert P("a~b") == ("a", "~b")
    assert P("a ~b") == ("a", "~b")
    assert P("") == ()
    assert P("  ") == ()


def test_parse_multicharacter_letters():
    alphabet = ("aa", "b")
    assert parse_queue_word("aa ~aa b", alphabet) == ("aa", "~aa", "b")
    assert parse_word("aa b", alphabet) == ("aa", "b")
    # unseparated multi-character names fall back to per-character scanning
    with pytest.raises(ParseError):
        parse_queue_word("aab", alphabet)


def test_parse_errors_name_the_offender():
    with pytest.raises(ParseError, match="1"):
        P("a1")
    with pytest.raises(ParseError, match="dangling"):
        P("a~")
    with pytest.raises(ParseError, match="~b"):
        parse_word("a~b")


def _outcome(parse, *args):
    try:
        return parse(*args)
    except ParseError as exc:
        return str(exc)


def _reference_plain(text, letters):
    tokens = tokenize(text, letters)
    for t in tokens:
        if t.startswith("~"):
            raise ParseError(f"read token {t!r} not allowed in a plain word")
    return tokens


def test_reader_and_writer_match_the_references():
    # every string of up to 6 characters over the letters' characters, ~,
    # a space and the unknown z: 80,979 strings over the three letter sets
    for letters in (("a", "b"), ("a", "b", "cc"), ("a", "~")):
        chars = sorted(set("".join(letters)) | {"~", " ", "z"})
        for k in range(7):
            for text in map("".join, itertools.product(chars, repeat=k)):
                want = _outcome(tokenize, text, letters)
                assert _outcome(parse_queue_word, text, letters) == want, (text, letters)
                want = _outcome(_reference_plain, text, letters)
                assert _outcome(parse_word, text, letters) == want, (text, letters)
    # every word of up to 5 actions; plain words are the write-only ones
    for letters in (("a", "b"), ("a", "bb"), ("aa", "bb")):
        actions = letters + tuple("~" + x for x in letters)
        for w in queue_words_up_to(5, actions):
            assert format_word(w) == format_queue_word(w), w


def test_format_and_round_trip():
    for text in ("", "a~b", "ab~a~b", "~a~a"):
        assert format_word(P(text)) == text
    assert format_word(("a", "b")) == "ab"
    assert format_word(("aa", "b")) == "aa b"
    assert format_state(BOTTOM) == "BOTTOM"
    assert repr(BOTTOM) == "BOTTOM"
    assert format_state(("a", "b")) == "ab"


def test_normal_form_text_round_trip():
    for w in [(), P("a~b"), P("ab~a~b"), P("~a~ab")]:
        nf = normal_form(w)
        text = format_normal_form(nf)
        assert parse_normal_form(text) == nf
    assert format_normal_form(NF_IDENTITY) == "<||>"
    assert parse_normal_form("<||>") == NF_IDENTITY
    assert parse_normal_form("<b|a|ab>") == QueueNormalForm(("b",), ("a",), ("a", "b"))


def test_parse_normal_form_errors():
    with pytest.raises(ParseError):
        parse_normal_form("b|a|ab")
    with pytest.raises(ParseError):
        parse_normal_form("<b|a>")
    with pytest.raises(ParseError):
        parse_normal_form("<b|~a|c>")
