"""Explicit embeddings of embeddable trace monoids into {a,b}* x {a,b}*.

An embedding is a homomorphism, fixed by its letter images.  For matching
alphabets (degree at most one) the letter with index i maps to (c_i, d_i)
and its partner to (c_i, d_i d_i); counting d's between markers recovers
the trace.  For the complete bipartite case the two clique projections
(onto part1 and onto part2, each with the isolated letters) determine a
trace.  Indexed letters are encoded into {a, b} by x_i -> a^i b, with the
matching index or the letter's rank as i, which is uniquely decodable.

The first embedding over an alphabet decides it once and keeps each
letter's index and components, in O(V + E), while the alphabet lives; a
letter's image is built on its first use.  The image of a word is the
concatenation of its letters' images, O(n + output).

verify_embedding_bounded enumerates the words of each length in letter
order but extends only lexicographic normal forms.  The first word of a
class in shortlex order is its normal form, and a word is one exactly when
no factor b u a has a before b and a independent of b and of every letter
of u (Diekert & Rozenberg, The Book of Traces, 1995).  So a word carries
the bitmask B of the letters that would complete such a factor, x may
follow exactly when its bit is clear, and appending z gives
(B & I(z)) | (I(z) & letters before z).  Why the other words need no
check past length 2: once the words of length at most 2 pass, the images
of independent letters commute, so the image is a function of the class
and only a collision between classes is left.  Let w be the first word
whose image equals that of an earlier word of another class, and p the
first word with that image.  p is a normal form, since its normal form has
its image and comes no later.  So is w: otherwise its normal form comes
earlier, lies in w's class and would collide with p first.  The rules that
decide the words of length 2 are the same as for every word: equal images
of inequivalent words fail first, then unequal images of equivalent ones.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Mapping, NamedTuple
from weakref import WeakKeyDictionary

from .alphabet import (
    IndependenceAlphabet,
    MatchingRecipe,
    NotEmbeddable,
    decide_embeddable,
)
from .errors import NotEmbeddableError, RecipeMismatchError

if TYPE_CHECKING:
    from .trace import TraceWord
    from .words import Letter, Word


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


# alphabet -> its letter images; equal alphabets share them, since the
# images depend only on the letters and the edges
_IMAGES: WeakKeyDictionary[IndependenceAlphabet, _LetterImages] = WeakKeyDictionary()


def _images(g: IndependenceAlphabet) -> _LetterImages:
    """The letter images of g, kept while g lives; raises NotEmbeddableError
    when g is not embeddable.

    A matching recipe sends the letter with index i to (a^i b, a^i b), or
    to (a^i b, a^i b a^i b) in role 'b'.  A bipartite recipe sends the
    letter of rank r to a^r b in the first component when it lies in part1,
    in the second when it lies in part2, and in both when it is isolated.
    O(V + E) on the first call; no image is built here.
    """
    images = _IMAGES.get(g)
    if images is not None:
        return images
    verdict = decide_embeddable(g)
    if isinstance(verdict, NotEmbeddable):
        raise NotEmbeddableError(verdict.reason)
    recipe = verdict.recipe
    if isinstance(recipe, MatchingRecipe):
        spec = {x: (i, 1, 2 if role == "b" else 1) for x, (i, role) in recipe.pairing.items()}
    else:
        spec = {x: (g.rank(x), 1, 1) for x in recipe.isolated}
        spec.update((x, (g.rank(x), 1, 0)) for x in recipe.part1)
        spec.update((x, (g.rank(x), 0, 1)) for x in recipe.part2)
    images = _IMAGES[g] = _LetterImages(spec)
    return images


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


def verify_embedding_bounded(
    g: IndependenceAlphabet,
    images: Mapping[Letter, ProductWord],
    n: int,
) -> EmbeddingReport:
    """Check that the homomorphism given by letter images separates classes.

    Covers every word of length at most n: two words must share an image
    exactly when they are trace equivalent.  The first offending pair in
    shortlex order (by length, then letter order) is reported, with
    words_checked the shortlex rank of its second word; a pass counts all
    the words.  Only the lexicographic normal forms, one per class, and
    the other words of length 2 are enumerated (see the module docstring
    for why that suffices): each normal form costs one step per letter
    plus its image, and one dict maps each image to its first normal form.
    Words and images are held as str, one character per letter and per
    image symbol.
    """
    letters = g.letters
    for x in letters:
        if x not in images:
            raise RecipeMismatchError(f"no image for letter {x!r}")
    if n < 0:
        return EmbeddingReport(True, 0, 0, None, "")
    code: dict[Letter, str] = {}
    steps = []
    for i, x in enumerate(letters):
        independent = 0
        for y in g.neighbors(x):
            independent |= 1 << g.rank(y)
        first, second = images[x]
        steps.append((
            chr(i), 1 << i, independent, independent & ((1 << i) - 1),
            "".join([code.setdefault(s, chr(len(code))) for s in first]),
            "".join([code.setdefault(s, chr(len(code))) for s in second]),
        ))
    k = len(letters)
    first_with = {("", ""): ""}

    def failure(u: str, v: str, detail: str) -> EmbeddingReport:
        nonempty = 0  # v as a numeral in bijective base k: the nonempty words up to v
        for c in v:
            nonempty = nonempty * k + ord(c) + 1
        pair = (tuple(letters[ord(c)] for c in u), tuple(letters[ord(c)] for c in v))
        return EmbeddingReport(False, 1 + nonempty, len(first_with), pair, detail)

    # level holds the normal forms of one length in letter order, each
    # with its blocked letters and its image; the last level is only checked
    level = [("", 0, "", "")]
    for length in range(n):
        nxt = []
        extend = length < n - 1
        for word, blocked, first, second in level:
            for x, bit, independent, before, x_first, x_second in steps:
                if blocked & bit:
                    if length == 1:
                        # word + x is equivalent to the normal form x + word
                        prior = first_with.get((first + x_first, second + x_second))
                        if prior is None:
                            return failure(x + word, word + x, "equivalent words with different images")
                        if prior != x + word:
                            return failure(prior, word + x, "equal images but inequivalent words")
                    continue
                child = word + x
                f = first + x_first
                s = second + x_second
                prior = first_with.setdefault((f, s), child)
                if prior is not child:  # the image is not new
                    return failure(prior, child, "equal images but inequivalent words")
                if extend:
                    nxt.append((child, blocked & independent | before, f, s))
        level = nxt
    return EmbeddingReport(True, sum(k ** i for i in range(n + 1)), len(first_with), None, "")
