"""Explicit embeddings of embeddable trace monoids into {a,b}* x {a,b}*.

For matching alphabets (degree at most one) the letter with index i maps
to (c_i, d_i) and its partner to (c_i, d_i d_i); counting d's between
markers recovers the trace.  For the complete bipartite case the two
clique projections of a trace word determine it, so the pair of
projections is an embedding into a product of two free monoids.  Indexed
letters are then encoded into a two-letter alphabet by x_i -> a^i b,
which is uniquely decodable, giving a product of two free monoids over
two-letter alphabets in both cases.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .alphabet import (
    BipartiteRecipe,
    IndependenceAlphabet,
    MatchingRecipe,
    NotEmbeddable,
    decide_embeddable,
)
from .errors import NotEmbeddableError, ParseError, PreconditionError, RecipeMismatchError
from .trace import TraceWord, clique_projection, dependence_stacks
from .words import Letter, Word


class ProductWord(NamedTuple):
    """Element of a direct product of two free monoids."""

    first: Word
    second: Word

    def __mul__(self, other: "ProductWord") -> "ProductWord":
        return ProductWord(self.first + other.first, self.second + other.second)


PRODUCT_IDENTITY = ProductWord((), ())


def eta_matching(recipe: MatchingRecipe, u: TraceWord) -> ProductWord:
    """Homomorphism for matching alphabets, into indexed letters c_i / d_i.

    A letter with index i and role 'a' (or no partner) maps to (c_i, d_i);
    its role-'b' partner maps to (c_i, d_i d_i).  The images of the two
    letters of a pair commute, and counting d's between the c-markers
    recovers the trace.
    """
    pairing = recipe.pairing
    for x in u.alphabet.letters:
        if x not in pairing:
            raise RecipeMismatchError(f"recipe says nothing about letter {x!r}")
    first: list[Letter] = []
    second: list[Letter] = []
    for x in u.word:
        i, role = pairing[x]
        first.append(f"c{i}")
        second.append(f"d{i}")
        if role == "b":
            second.append(f"d{i}")
    return ProductWord(tuple(first), tuple(second))


def bipartite_embedding(recipe: BipartiteRecipe, u: TraceWord) -> ProductWord:
    """Pair of clique projections for a complete bipartite core.

    The first component keeps part1 plus all isolated letters, the second
    part2 plus all isolated letters.  Letters within one kept set are
    pairwise dependent, so each projection is invariant across u's class.
    """
    g = u.alphabet
    _check_bipartite_recipe(recipe, g)
    first = clique_projection(u, recipe.part1 + recipe.isolated)
    second = clique_projection(u, recipe.part2 + recipe.isolated)
    return ProductWord(first, second)


def _check_bipartite_recipe(recipe: BipartiteRecipe, g: IndependenceAlphabet) -> None:
    groups = (recipe.part1, recipe.part2, recipe.isolated)
    listed = [x for grp in groups for x in grp]
    if sorted(listed) != sorted(g.letters) or len(set(listed)) != len(listed):
        raise RecipeMismatchError("recipe does not partition the alphabet")
    if not recipe.part1 or not recipe.part2:
        raise RecipeMismatchError("both parts must be nonempty")
    for a in recipe.part1:
        for b in recipe.part2:
            if not g.independent(a, b):
                raise RecipeMismatchError(f"parts are not completely independent: ({a!r}, {b!r})")
    for grp in groups:
        for i, a in enumerate(grp):
            for b in grp[i + 1:]:
                if g.independent(a, b):
                    raise RecipeMismatchError(f"independent pair inside one group: ({a!r}, {b!r})")
    for a in recipe.isolated:
        if g.degree(a) != 0:
            raise RecipeMismatchError(f"letter {a!r} listed as isolated but has a partner")


def binary_encode(
    w: Word,
    letters: tuple[Letter, Letter] = ("a", "b"),
    index: Mapping[Letter, int] | None = None,
) -> Word:
    """Encode indexed letters into a two-letter alphabet via x_i -> a^i b.

    Indices are taken from the mapping when given, otherwise from trailing
    decimal digits of each letter name.
    """
    zero, one = letters
    out: list[Letter] = []
    for x in w:
        if index is not None:
            if x not in index:
                raise PreconditionError(f"no index known for letter {x!r}")
            i = index[x]
        else:
            digits = ""
            while x and x[-1].isdigit():
                digits = x[-1] + digits
                x = x[:-1]
            if not digits:
                raise PreconditionError(f"letter {x!r} carries no index")
            i = int(digits)
        out.extend([zero] * i)
        out.append(one)
    return tuple(out)


def binary_decode(w: Word, letters: tuple[Letter, Letter] = ("a", "b")) -> tuple[int, ...]:
    """Recover the index sequence from a binary-encoded word."""
    zero, one = letters
    out: list[int] = []
    run = 0
    for x in w:
        if x == zero:
            run += 1
        elif x == one:
            out.append(run)
            run = 0
        else:
            raise ParseError(f"unexpected letter {x!r} in encoded word")
    if run:
        raise ParseError("encoded word ends inside a block of index letters")
    return tuple(out)


def embed_to_two_free(g: IndependenceAlphabet, u: TraceWord) -> ProductWord:
    """Image of u under the embedding chosen by decide_embeddable.

    Both components are words over the two-letter alphabet {a, b}; the two
    free monoids are separate copies even though the letter names repeat.
    Raises NotEmbeddableError when the alphabet fails the classification.
    """
    if u.alphabet != g:
        raise RecipeMismatchError("word is over a different alphabet")
    verdict = decide_embeddable(g)
    if isinstance(verdict, NotEmbeddable):
        raise NotEmbeddableError(verdict.reason)
    recipe = verdict.recipe
    if isinstance(recipe, MatchingRecipe):
        pw = eta_matching(recipe, u)
        return ProductWord(binary_encode(pw.first), binary_encode(pw.second))
    pw = bipartite_embedding(recipe, u)
    rank = {x: g.rank(x) for x in g.letters}
    return ProductWord(
        binary_encode(pw.first, index=rank),
        binary_encode(pw.second, index=rank),
    )


def letter_images(g: IndependenceAlphabet) -> dict[Letter, ProductWord]:
    """Image of each single letter under embed_to_two_free."""
    return {x: embed_to_two_free(g, TraceWord(g, (x,))) for x in g.letters}


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

    Enumerates every word of length at most n over the alphabet and tests
    that two words share an image exactly when they are trace equivalent,
    that is, have equal dependence stacks.  The first offending pair, in
    enumeration order, is reported.
    """
    for x in g.letters:
        if x not in images:
            raise RecipeMismatchError(f"no image for letter {x!r}")

    by_image: dict[tuple[Word, Word], tuple[bytes, Word]] = {}
    by_class: dict[bytes, tuple[Word, tuple[Word, Word]]] = {}
    count = 0
    level: list[tuple[Word, ProductWord]] = [((), PRODUCT_IDENTITY)]
    for length in range(n + 1):
        for word, img in level:
            count += 1
            key_img = (img.first, img.second)
            key_class = dependence_stacks(TraceWord(g, word))
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
        if length < n:
            level = [
                (word + (x,), img * images[x])
                for word, img in level
                for x in g.letters
            ]
    return EmbeddingReport(True, count, len(by_class), None, "")
