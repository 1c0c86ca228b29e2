"""Trace monoid: lexicographic normal forms, equivalence, clique projections."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from quemon import (
    AlphabetMismatchError,
    IndependenceAlphabet,
    PreconditionError,
    TraceWord,
    lex_normal_form,
    trace_equivalent,
)

from oracles import bfs_trace_class, clique_projection, greedy_lex_normal_form

AB = IndependenceAlphabet(("a", "b"), [("a", "b")])
AC = IndependenceAlphabet(("a", "b", "c"), [("a", "c")])
PATH = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c")])


def words_up_to(letters, n):
    for k in range(n + 1):
        yield from itertools.product(letters, repeat=k)


def all_edge_sets(letters, max_edges=None):
    pairs = list(itertools.combinations(letters, 2))
    for r in range(len(pairs) + 1):
        if max_edges is not None and r > max_edges:
            return
        yield from itertools.combinations(pairs, r)


# -- construction -------------------------------------------------------------

def test_trace_word_validates_letters():
    with pytest.raises(PreconditionError, match="^letter 'z' not in the alphabet$"):
        TraceWord(AB, ("a", "z", "b", "y"))
    with pytest.raises(PreconditionError, match="'y'"):
        TraceWord(AB, ["y", "z"])


def test_trace_word_stores_a_tuple():
    # any iterable of letters gives the same hashable word as its tuple
    u = TraceWord(AB, ["a", "b"])
    assert u.word == ("a", "b") and type(u.word) is tuple
    assert u == TraceWord(AB, ("a", "b"))
    assert hash(u) == hash(TraceWord(AB, ("a", "b")))
    assert TraceWord(AB, iter("ab")) == u


def test_trace_word_multiplication():
    u = TraceWord(AB, ("a",))
    v = TraceWord(AB, ("b",))
    assert (u * v).word == ("a", "b")
    with pytest.raises(AlphabetMismatchError):
        u * TraceWord(AC, ("a",))


# -- normal forms and equivalence ---------------------------------------------

def test_lex_normal_form_examples():
    assert lex_normal_form(TraceWord(AB, ("b", "a", "b"))).word == ("a", "b", "b")
    assert lex_normal_form(TraceWord(AC, ("c", "a"))).word == ("a", "c")
    assert lex_normal_form(TraceWord(AC, ("c", "b", "a"))).word == ("c", "b", "a")
    assert lex_normal_form(TraceWord(AB, ())).word == ()


def test_lex_normal_form_custom_order():
    # another letter order is another declaration of the alphabet
    for g, w, order, want in (
        (AB, ("a", "b"), ("b", "a"), ("b", "a")),
        (AC, ("c", "a", "b"), ("b", "c", "a"), ("c", "a", "b")),
    ):
        got = lex_normal_form(TraceWord(IndependenceAlphabet(order, g.edges), w)).word
        assert got == greedy_lex_normal_form(g, w, order) == want
    assert lex_normal_form(TraceWord(AC, ("c", "a", "b"))).word == ("a", "c", "b")


def test_trace_equivalent_examples():
    assert trace_equivalent(TraceWord(PATH, ("a", "b", "c")), TraceWord(PATH, ("b", "a", "c")))
    assert not trace_equivalent(TraceWord(AB, ("a", "a")), TraceWord(AB, ("a",)))
    # only (a, b) commutes here, so swapping a and c changes the trace
    g = IndependenceAlphabet(("a", "b", "c"), [("a", "b")])
    assert not trace_equivalent(TraceWord(g, ("a", "c")), TraceWord(g, ("c", "a")))
    with pytest.raises(AlphabetMismatchError):
        trace_equivalent(TraceWord(AB, ()), TraceWord(AC, ()))


def test_bfs_trace_class_examples():
    cls = bfs_trace_class(TraceWord(PATH, ("a", "b", "c")))
    assert cls == {("a", "b", "c"), ("b", "a", "c"), ("a", "c", "b")}
    assert bfs_trace_class(TraceWord(AB, ())) == {()}


def test_exhaustive_small_alphabets():
    """Normal form represents the class; equivalence = class membership."""
    letters = ("a", "b", "c")
    for edges in all_edge_sets(letters):
        g = IndependenceAlphabet(letters, edges)
        for w in words_up_to(letters, 4):
            u = TraceWord(g, w)
            cls = bfs_trace_class(u)
            nf = lex_normal_form(u).word
            assert nf in cls
            assert nf == min(cls)
            for v in words_up_to(letters, 4):
                assert trace_equivalent(u, TraceWord(g, v)) == (v in cls)


@st.composite
def alphabet_and_words(draw):
    letters = ("a", "b", "c", "d")
    pairs = list(itertools.combinations(letters, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    g = IndependenceAlphabet(letters, edges)
    w = tuple(draw(st.lists(st.sampled_from(letters), max_size=7)))
    return g, w


@given(alphabet_and_words())
@settings(max_examples=120, deadline=None)
def test_normal_form_is_least_class_member(gw):
    g, w = gw
    u = TraceWord(g, w)
    cls = bfs_trace_class(u)
    nf = lex_normal_form(u).word
    assert nf == min(cls)
    assert trace_equivalent(u, TraceWord(g, nf))


# -- clique projections --------------------------------------------------------

def test_clique_projection_examples():
    u = TraceWord(PATH, ("a", "b", "c", "a"))
    assert clique_projection(u, ("a", "c")) == ("a", "c", "a")
    assert clique_projection(u, ("b",)) == ("b",)
    assert clique_projection(u, ()) == ()


def test_clique_projections_separate_inequivalent_words():
    """Dependent-pair projections jointly determine the trace."""
    cliques = [("a", "b"), ("b", "c"), ("a", "c")]
    seen = {}
    for w in words_up_to(("a", "b", "c"), 5):
        u = TraceWord(AC, w)
        key = tuple(clique_projection(u, c) for c in cliques)
        nf = lex_normal_form(u).word
        assert seen.setdefault(key, nf) == nf
