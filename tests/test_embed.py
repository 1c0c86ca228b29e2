"""Embeddings into a product of two free monoids, and their bounded verification.

The letter images and the class keys of the word-by-word reference
verification are checked exhaustively on every embeddable alphabet of at
most five letters against the oracles: the embeddings built word by word,
behind the recipe check that tries every pair, and the dependence stacks
built by projection.  The bounded verification, which enumerates only
normal forms, must return the reference's report field for field.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quemon import (
    BipartiteRecipe,
    Embeddable,
    IndependenceAlphabet,
    MatchingRecipe,
    NotCompleteBipartite,
    NotEmbeddableError,
    ParseError,
    PreconditionError,
    ProductWord,
    RecipeMismatchError,
    TraceWord,
    decide_embeddable,
    embed_to_two_free,
    letter_images,
    trace_equivalent,
    verify_embedding_bounded,
)

from oracles import (
    _words_with_keys,
    binary_decode,
    binary_encode,
    bipartite_embedding,
    dependence_stacks,
    eta_matching,
    keyed_verify_embedding_bounded,
)

PAIR = IndependenceAlphabet(("a", "b"), [("a", "b")])
MATCHING = IndependenceAlphabet(
    ("a", "b", "c", "d", "e"), [("a", "b"), ("c", "d")]
)
P3 = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c")])
K3 = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
EMPTY = ProductWord((), ())
K22_ISOLATED = IndependenceAlphabet(
    ("a", "b", "c", "d", "e"),
    [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
)


def words_up_to(letters, n):
    for k in range(n + 1):
        yield from itertools.product(letters, repeat=k)


# -- the two letter-image constructions ----------------------------------------

def test_eta_matching_examples():
    recipe = MatchingRecipe({"a": (0, "a"), "b": (0, "b")})
    u = TraceWord(PAIR, ("a", "b"))
    assert eta_matching(recipe, u) == ProductWord(
        ("c0", "c0"), ("d0", "d0", "d0")
    )
    assert eta_matching(recipe, TraceWord(PAIR, ())) == EMPTY


def test_eta_matching_pair_images_commute():
    recipe = MatchingRecipe({"a": (0, "a"), "b": (0, "b")})
    ab = eta_matching(recipe, TraceWord(PAIR, ("a", "b")))
    ba = eta_matching(recipe, TraceWord(PAIR, ("b", "a")))
    assert ab == ba


def test_eta_matching_rejects_uncovered_letter():
    recipe = MatchingRecipe({"a": (0, "a")})
    with pytest.raises(RecipeMismatchError, match="b"):
        eta_matching(recipe, TraceWord(PAIR, ("a",)))


def test_bipartite_embedding_examples():
    verdict = decide_embeddable(P3)
    recipe = verdict.recipe
    u = TraceWord(P3, ("a", "b", "c"))
    assert bipartite_embedding(recipe, u) == ProductWord(("b",), ("a", "c"))
    assert bipartite_embedding(recipe, TraceWord(P3, ())) == EMPTY
    ab = bipartite_embedding(recipe, TraceWord(P3, ("a", "b")))
    ba = bipartite_embedding(recipe, TraceWord(P3, ("b", "a")))
    assert ab == ba == ProductWord(("b",), ("a",))


def test_bipartite_embedding_keeps_isolated_letters_in_both_components():
    verdict = decide_embeddable(K22_ISOLATED)
    pw = bipartite_embedding(verdict.recipe, TraceWord(K22_ISOLATED, ("e", "a")))
    assert pw == ProductWord(("e", "a"), ("e",))


def test_bipartite_recipe_validation():
    from quemon import BipartiteRecipe

    with pytest.raises(RecipeMismatchError):
        bipartite_embedding(
            BipartiteRecipe(("a",), ("c",), ()), TraceWord(P3, ())
        )
    with pytest.raises(RecipeMismatchError):
        bipartite_embedding(
            BipartiteRecipe(("a", "c"), ("b",), ("a",)), TraceWord(P3, ())
        )
    with pytest.raises(RecipeMismatchError):
        bipartite_embedding(
            BipartiteRecipe((), ("a", "b", "c"), ()), TraceWord(P3, ())
        )


# -- index words over two letters -----------------------------------------------

def test_binary_encode_examples():
    assert binary_encode(("x0", "x2")) == ("b", "a", "a", "b")
    assert binary_encode(()) == ()
    assert binary_encode(("x1", "x1")) == ("a", "b", "a", "b")
    assert binary_encode(("p", "q"), index={"p": 0, "q": 3}) == (
        "b", "a", "a", "a", "b",
    )
    assert binary_encode(("x2",), letters=("0", "1")) == ("0", "0", "1")


def test_binary_encode_errors():
    with pytest.raises(PreconditionError, match="index"):
        binary_encode(("x",))
    with pytest.raises(PreconditionError, match="q"):
        binary_encode(("q",), index={"p": 0})


def test_binary_decode_round_trip():
    for indices in words_up_to(range(4), 3):
        w = binary_encode(tuple(f"x{i}" for i in indices))
        assert binary_decode(w) == tuple(indices)


def test_binary_decode_errors():
    with pytest.raises(ParseError, match="c"):
        binary_decode(("b", "c"))
    with pytest.raises(ParseError, match="ends inside"):
        binary_decode(("b", "a"))


# -- the full embedding -----------------------------------------------------------

def test_embed_examples():
    assert embed_to_two_free(PAIR, TraceWord(PAIR, ("a",))) == ProductWord(
        ("b",), ("b",)
    )
    assert embed_to_two_free(PAIR, TraceWord(PAIR, ())) == EMPTY
    assert embed_to_two_free(MATCHING, TraceWord(MATCHING, ("a", "b", "c"))) == ProductWord(
        ("b", "b", "a", "b"), ("b", "b", "b", "a", "b")
    )
    assert embed_to_two_free(P3, TraceWord(P3, ("a", "b", "c"))) == ProductWord(
        ("a", "b"), ("b", "a", "a", "b")
    )


def test_embed_rejects_non_embeddable_alphabet():
    with pytest.raises(NotEmbeddableError) as exc:
        embed_to_two_free(K3, TraceWord(K3, ("a",)))
    assert isinstance(exc.value.args[0], NotCompleteBipartite)


def test_embed_rejects_foreign_word():
    with pytest.raises(RecipeMismatchError):
        embed_to_two_free(PAIR, TraceWord(P3, ("a",)))


def test_letter_images():
    images = letter_images(PAIR)
    assert images == {
        "a": ProductWord(("b",), ("b",)),
        "b": ProductWord(("b",), ("b", "b")),
    }


@given(st.lists(st.sampled_from(MATCHING.letters), max_size=5),
       st.lists(st.sampled_from(MATCHING.letters), max_size=5))
@settings(max_examples=100)
def test_embedding_is_a_homomorphism(u, v):
    tu, tv = TraceWord(MATCHING, tuple(u)), TraceWord(MATCHING, tuple(v))
    eu, ev = embed_to_two_free(MATCHING, tu), embed_to_two_free(MATCHING, tv)
    assert embed_to_two_free(MATCHING, tu * tv) == ProductWord(eu.first + ev.first, eu.second + ev.second)


@pytest.mark.parametrize("g,n", [(P3, 4), (MATCHING, 3)])
def test_images_coincide_exactly_on_equivalent_words(g, n):
    images = {}
    for w in words_up_to(g.letters, n):
        images[w] = embed_to_two_free(g, TraceWord(g, w))
    words = list(images)
    for u in words:
        for v in words:
            assert (images[u] == images[v]) == trace_equivalent(
                TraceWord(g, u), TraceWord(g, v)
            )


# -- bounded verification ----------------------------------------------------------

def test_verify_embedding_bounded_success():
    two_pairs = IndependenceAlphabet(
        ("a", "b", "c", "d"), [("a", "b"), ("c", "d")]
    )
    report = verify_embedding_bounded(two_pairs, letter_images(two_pairs), 4)
    assert report.ok
    assert report.counterexample is None
    assert report.words_checked == sum(4 ** k for k in range(5))
    assert report.classes == 231


def test_verify_embedding_bounded_detects_image_collision():
    g = IndependenceAlphabet(("a", "b"), [])
    same = ProductWord(("b",), ("b",))
    report = verify_embedding_bounded(g, {"a": same, "b": same}, 2)
    assert not report.ok
    assert report.counterexample == (("a",), ("b",))
    assert report.detail == "equal images but inequivalent words"


def test_verify_embedding_bounded_detects_broken_invariance():
    images = {"a": ProductWord(("a",), ()), "b": ProductWord(("b",), ())}
    report = verify_embedding_bounded(PAIR, images, 2)
    assert not report.ok
    assert report.counterexample == (("a", "b"), ("b", "a"))
    assert report.detail == "equivalent words with different images"


def test_verify_embedding_bounded_requires_all_images():
    with pytest.raises(RecipeMismatchError, match="b"):
        verify_embedding_bounded(PAIR, {"a": EMPTY}, 1)


def test_verify_embedding_bounded_with_negative_bound_checks_nothing():
    report = verify_embedding_bounded(PAIR, letter_images(PAIR), -1)
    assert report == (True, 0, 0, None, "")


# -- the letter-image table and the class keys against the oracles ----------------

def all_graphs(max_letters):
    for n in range(max_letters + 1):
        letters = "abcde"[:n]
        pairs = list(itertools.combinations(letters, 2))
        for mask in range(1 << len(pairs)):
            yield IndependenceAlphabet(letters, [p for k, p in enumerate(pairs) if mask >> k & 1])


EMBEDDABLE = [
    (g, verdict.recipe)
    for g in all_graphs(5)
    for verdict in [decide_embeddable(g)]
    if isinstance(verdict, Embeddable)
]


def test_table_equals_the_encoded_oracle_images_up_to_5_letters():
    assert len(EMBEDDABLE) == 146
    for g, recipe in EMBEDDABLE:
        want = {}
        for x in g.letters:
            u = TraceWord(g, (x,))
            if isinstance(recipe, MatchingRecipe):
                pw = eta_matching(recipe, u)
                want[x] = ProductWord(binary_encode(pw.first), binary_encode(pw.second))
            else:
                pw = bipartite_embedding(recipe, u)
                rank = {y: g.rank(y) for y in g.letters}
                want[x] = ProductWord(binary_encode(pw.first, index=rank), binary_encode(pw.second, index=rank))
        assert letter_images(g) == want, g


def test_class_keys_split_words_up_to_5_as_the_dependence_stacks():
    for g, _ in EMBEDDABLE:
        images = letter_images(g)
        seen = list(_words_with_keys(g, images, 5))
        assert [w for w, _, _ in seen] == list(words_up_to(g.letters, 5))
        pairs = {(key, dependence_stacks(TraceWord(g, w))) for w, key, _ in seen}
        assert len(pairs) == len({key for key, _ in pairs}) == len({s for _, s in pairs}), g
        for w, _, img in seen[: 1 + len(g.letters) + len(g.letters) ** 2]:
            assert ProductWord(*img) == embed_to_two_free(g, TraceWord(g, w))


# -- the normal-form enumeration against the word-by-word reference -----------

def _random_images(rng, g, symbols, longest):
    def side():
        return tuple(rng.choice(symbols) for _ in range(rng.randrange(longest + 1)))
    return {x: ProductWord(side(), side()) for x in g.letters}


def test_verify_equals_the_word_by_word_reference_up_to_4_letters():
    # images over one symbol commute: two dependent letters collide at
    # length 2, but on a complete graph the first collision can lie beyond
    # it, where words_checked is the rank of a normal form; images over
    # {a, b}, empty ones too, mostly fail at length 1 or 2
    rng = random.Random(13)
    past_2 = 0
    for g in all_graphs(4):
        complete = all(g.independent(x, y) for x, y in itertools.combinations(g.letters, 2))
        cases = [letter_images(g)] if isinstance(decide_embeddable(g), Embeddable) else []
        cases += [_random_images(rng, g, "x", 3) for _ in range(12 if complete else 3)]
        cases += [_random_images(rng, g, "ab", 2) for _ in range(3)]
        for images in cases:
            for n in range(6):
                want = keyed_verify_embedding_bounded(g, images, n)
                assert verify_embedding_bounded(g, images, n) == want, (g, images, n)
                past_2 += not want.ok and len(want.counterexample[1]) > 2
    assert past_2 >= 10


def test_verify_equals_the_reference_on_every_embeddable_alphabet_up_to_5_letters():
    for g, _ in EMBEDDABLE:
        images = letter_images(g)
        for n in range(5):
            assert verify_embedding_bounded(g, images, n) == keyed_verify_embedding_bounded(g, images, n), (g, n)
