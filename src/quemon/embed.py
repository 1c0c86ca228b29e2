"""Explicit embeddings of embeddable trace monoids into {a,b}* x {a,b}*.

An embedding is a homomorphism, fixed by its letter images.  For matching
alphabets (degree at most one) the letter with index i maps to (c_i, d_i)
and its partner to (c_i, d_i d_i); counting d's between markers recovers
the trace.  For the complete bipartite case the two clique projections
(onto part1 and onto part2, each with the isolated letters) determine a
trace.  Indexed letters are encoded into {a, b} by x_i -> a^i b, with the
matching index or the letter's rank as i, which is uniquely decodable.

The first embedding over an alphabet decides it once and caches, on the
alphabet, each letter's index and components, in O(V + E); a letter's
image is built on its first use.  The image of a word is the concatenation
of its letters' images, O(n + output).

verify_embedding_bounded extends words one letter at a time and carries
each word's class key and image along; the key, defined in
_words_with_keys, holds each letter's occurrence offsets (see
quemon.trace) as the bits of one int.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .alphabet import (
    IndependenceAlphabet,
    MatchingRecipe,
    NotEmbeddable,
    decide_embeddable,
)
from .errors import NotEmbeddableError, RecipeMismatchError
from .words import Letter, Word

if TYPE_CHECKING:
    from .trace import TraceWord


class ProductWord(NamedTuple):
    """Element of a direct product of two free monoids."""

    first: Word
    second: Word


class _LetterImages(dict):
    """Letter -> ProductWord, each image built on first use from the
    letter's (index i, copies of a^i b in the first component, copies in
    the second)."""

    __slots__ = ("spec",)

    def __init__(self, spec: dict[Letter, tuple[int, int, int]]) -> None:
        super().__init__()
        self.spec = spec

    def __missing__(self, x: Letter) -> ProductWord:
        i, first, second = self.spec[x]
        code = ("a",) * i + ("b",)
        image = self[x] = ProductWord(code * first, code * second)
        return image


def _build_images(g: IndependenceAlphabet) -> _LetterImages | NotEmbeddable:
    """The letter images of g, or the verdict when g is not embeddable.

    A matching recipe sends the letter with index i to (a^i b, a^i b), or
    to (a^i b, a^i b a^i b) in role 'b'.  A bipartite recipe sends the
    letter of rank r to a^r b in the first component when it lies in part1,
    in the second when it lies in part2, and in both when it is isolated.
    O(V + E); no image is built here.
    """
    verdict = decide_embeddable(g)
    if isinstance(verdict, NotEmbeddable):
        return verdict
    recipe = verdict.recipe
    if isinstance(recipe, MatchingRecipe):
        spec = {x: (i, 1, 2 if role == "b" else 1) for x, (i, role) in recipe.pairing.items()}
    else:
        spec = {x: (g.rank(x), 1, 1) for x in recipe.isolated}
        spec.update((x, (g.rank(x), 1, 0)) for x in recipe.part1)
        spec.update((x, (g.rank(x), 0, 1)) for x in recipe.part2)
    return _LetterImages(spec)


def _images(g: IndependenceAlphabet) -> _LetterImages:
    """The letter images of g, cached on g; raises NotEmbeddableError when
    g is not embeddable."""
    images = g._embedding
    if images is None:
        images = g._embedding = _build_images(g)
    if isinstance(images, NotEmbeddable):
        raise NotEmbeddableError(images.reason)
    return images  # type: ignore[return-value]


def embed_to_two_free(g: IndependenceAlphabet, u: TraceWord) -> ProductWord:
    """Image of u under the embedding chosen by decide_embeddable.

    Both components are words over the two-letter alphabet {a, b}; the two
    free monoids are separate copies even though the letter names repeat.
    The image is the concatenation of the letters' images, O(n + output).
    Raises NotEmbeddableError when the alphabet fails the classification.
    """
    if u.alphabet != g:
        raise RecipeMismatchError("word is over a different alphabet")
    images = list(map(_images(g).__getitem__, u.word))
    return ProductWord(
        tuple(chain.from_iterable(map(itemgetter(0), images))),
        tuple(chain.from_iterable(map(itemgetter(1), images))),
    )


def letter_images(g: IndependenceAlphabet) -> dict[Letter, ProductWord]:
    """Image of each single letter under embed_to_two_free."""
    images = _images(g)
    return {x: images[x] for x in g.letters}


class EmbeddingReport(NamedTuple):
    """Outcome of a bounded injectivity-and-invariance check."""

    ok: bool
    words_checked: int
    classes: int
    counterexample: tuple[Word, Word] | None
    detail: str


def _words_with_keys(
    g: IndependenceAlphabet, images: Mapping[Letter, ProductWord], n: int
) -> Iterator[tuple[Word, tuple[int, ...], tuple[Word, Word]]]:
    """Every word of length at most n, by length and then letter order,
    with its class key and its image, each extended from its parent's.

    The class key holds one int per letter, whose bit o is set when the
    letter has an occurrence at offset o, the canonical form of
    quemon.trace.  Appending x to a word of length m sets bit m - sum over
    z in I(x) of #z in x's int, and #z is the popcount of z's int.
    """
    steps = [
        (x, g.rank(x), tuple(map(g.rank, g.neighbors(x))), images[x].first, images[x].second)
        for x in g.letters
    ]
    level = [((), (0,) * len(g.letters), ((), ()))]
    for length in range(n + 1):
        yield from level
        if length < n:
            nxt = []
            for word, key, (first, second) in level:
                for x, i, independent, x_first, x_second in steps:
                    offset = length
                    for j in independent:
                        offset -= key[j].bit_count()
                    offsets = list(key)
                    offsets[i] |= 1 << offset
                    nxt.append((word + (x,), tuple(offsets), (first + x_first, second + x_second)))
            level = nxt


def verify_embedding_bounded(
    g: IndependenceAlphabet,
    images: Mapping[Letter, ProductWord],
    n: int,
) -> EmbeddingReport:
    """Check that the homomorphism given by letter images separates classes.

    Enumerates every word of length at most n over the alphabet and tests
    that two words share an image exactly when they are trace equivalent,
    that is, have equal class keys (see _words_with_keys).  The first
    offending pair, in enumeration order, is reported.  Each word costs one
    popcount per letter independent of its last letter, plus its image.
    """
    for x in g.letters:
        if x not in images:
            raise RecipeMismatchError(f"no image for letter {x!r}")
    by_image: dict[tuple[Word, Word], tuple[tuple[int, ...], Word]] = {}
    by_class: dict[tuple[int, ...], tuple[Word, tuple[Word, Word]]] = {}
    count = 0
    for count, (word, key_class, key_img) in enumerate(_words_with_keys(g, images, n), 1):
        prior = by_image.get(key_img)
        if prior is None:
            by_image[key_img] = (key_class, word)
        elif prior[0] != key_class:
            return EmbeddingReport(
                False, count, len(by_class), (prior[1], word),
                "equal images but inequivalent words",
            )
        prior_class = by_class.get(key_class)
        if prior_class is None:
            by_class[key_class] = (word, key_img)
        elif prior_class[1] != key_img:
            return EmbeddingReport(
                False, count, len(by_class), (prior_class[0], word),
                "equivalent words with different images",
            )
    return EmbeddingReport(True, count, len(by_class), None, "")
