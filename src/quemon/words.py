"""Word combinatorics: overlaps, primitive roots, conjugacy of primitive words.

A word is a tuple of letters; a letter is a nonempty string.  Everything in
this module is classical periodicity reasoning on plain words.  Words may be
long (queue products and powers of many thousands of actions call overlap),
so overlaps and rotations go through the prefix function of Knuth, Morris
and Pratt (1977) and take linear time.  Every scan advances its match
itself: a letter that continues the match lengthens it by one, a letter
that mismatches at length 0 leaves it at 0, and only a real fallback calls
match_step.  That one fallback path also builds the table, on demand: an
entry is computed, in order and once, only when a fallback first reaches
it, so a scan that rarely mismatches builds little of it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import EmptyWordError, NotPrimitiveError

Letter = str
Word = tuple[Letter, ...]


def match_step(pattern: Sequence[Letter], border: list[int], k: int, x: Letter) -> int:
    """Advance a Knuth-Morris-Pratt match of pattern by the letter x.

    The first k letters of pattern have just been matched (0 <= k <=
    len(pattern)) and x is read next; the result is the length of the
    longest prefix of pattern that is a suffix of pattern[:k] + x.  border
    is a prefix, possibly empty, of the prefix function of pattern: border[i]
    is the length of the longest proper prefix of pattern[:i+1] that is also
    its suffix.  A fallback from a match of length k needs border[k - 1];
    when that entry is not built yet, border is extended in place up to it,
    each new entry by the prefix-function loop over pattern itself.  A full
    match (k == len(pattern)) falls back along its borders first, so the
    result never exceeds len(pattern).  Each call costs O(1) amortised
    over a left-to-right scan, because every fallback shortens the match,
    every call lengthens it by at most one, and every entry of border is
    computed once.
    """
    n = len(pattern)
    while k and (k == n or pattern[k] != x):
        while len(border) < k:
            i = len(border)
            j = border[-1] if i else 0
            y = pattern[i]
            # j < i, so the fallbacks read only entries already built
            while j and pattern[j] != y:
                j = border[j - 1]
            border.append(j + 1 if i and pattern[j] == y else 0)
        k = border[k - 1]
    if k < n and pattern[k] == x:
        return k + 1
    return k


def overlap(u: Word, v: Word) -> Word:
    """Longest word that is simultaneously a suffix of u and a prefix of v.

    Only the last m = min(|u|, |v|) letters of u and the first m of v can
    take part.  One Knuth-Morris-Pratt scan of those letters of u against
    v[:m] ends in the longest prefix of v[:m] that is a suffix of u.  The
    scan extends the match in place and calls match_step only to fall
    back, so the prefix function of v[:m] is built only as far as the
    fallbacks reach, and the whole costs O(|u| + |v|).
    """
    m = min(len(u), len(v))
    head = v[:m]
    border: list[int] = []
    k = 0
    for x in u[len(u) - m:]:
        # k is at most the letters read before x, fewer than m
        if head[k] == x:
            k += 1
        elif k:
            k = match_step(head, border, k, x)
    return head[:k]


def primitive_root(w: Word) -> tuple[Word, int]:
    """Return (root, e) where root is primitive and root repeated e times is w.

    The root is the shortest period that divides w evenly; e is maximal.
    Raises EmptyWordError on the empty word, which is a power of everything.

    The lengths d dividing n = |w| with w = w[:d]^(n/d) are exactly the
    multiples of |root| that divide n.  So each prime q of n in turn
    divides the root so far by q for as long as that still leaves a
    period, and the last length left is |root|.  At most Ω(n) checks pass,
    one per prime factor of n counted with multiplicity, and at most ω(n)
    fail, one per distinct prime.  Each is on the root so far and costs
    O(n), so the whole takes O(n ω(n)), not O(n d(n)) over every divisor.
    """
    if not w:
        raise EmptyWordError("the empty word has no primitive root")
    root = w
    for q in _prime_factors(len(w)):
        while len(root) % q == 0 and _has_period(root, len(root) // q):
            root = root[: len(root) // q]
    return root, len(w) // len(root)


def _has_period(u: Word, d: int) -> bool:
    """Whether u is a power of u[:d], d dividing |u|: whether u has period
    d.  That period puts u[d - 1] at the end of u, so the last letter is
    compared first."""
    return u[d - 1] == u[-1] and u[d:] == u[:-d]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, in increasing order, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def is_primitive(w: Word) -> bool:
    """True when w is nonempty and not a proper power."""
    return bool(w) and primitive_root(w)[1] == 1


def power_exponent(w: Word, base: Word) -> int | None:
    """The k with base repeated k times equal to w, or None if there is none.

    The empty word is base**0.  With an empty base only w == () matches.
    """
    if not base:
        return 0 if not w else None
    k, r = divmod(len(w), len(base))
    if r != 0 or base * k != w:
        return None
    return k


class _Split(NamedTuple):
    g: Word
    h: Word


class ConjugacyDecomposition(_Split):
    """A split (g, h) witnessing that p = gh and q = hg are conjugate.

    h must be nonempty and gh primitive; every rotation of a primitive word
    is again primitive, so hg needs no separate check.  A NamedTuple, so it
    is immutable and compares equal to the plain tuple (g, h).
    """

    __slots__ = ()

    def __new__(cls, g: Word, h: Word) -> "ConjugacyDecomposition":
        if not h:
            raise EmptyWordError("h must be nonempty")
        if not is_primitive(g + h):
            raise NotPrimitiveError(f"gh is not primitive: {g + h!r}")
        return super().__new__(cls, g, h)

    @classmethod
    def _make(cls, iterable) -> "ConjugacyDecomposition":
        # _replace builds through _make, so it checks its arguments too
        return cls(*iterable)

    @property
    def p(self) -> Word:
        return self.g + self.h

    @property
    def q(self) -> Word:
        return self.h + self.g


def conjugacy_decomposition(p: Word, q: Word) -> ConjugacyDecomposition | None:
    """Split p into g, h with q = hg, or None when p and q are not conjugate.

    Both inputs must be primitive.  Among all valid splits the one with the
    shortest g is returned, which makes the choice deterministic; for p == q
    that is g = (), h = p.  q = hg for g = p[:i] exactly when q occurs in
    p p at offset i, so the shortest g is read off the first occurrence.
    """
    if not p or not q:
        raise EmptyWordError("conjugacy is defined for nonempty words")
    if not is_primitive(p):
        raise NotPrimitiveError(f"not primitive: {p!r}")
    if not is_primitive(q):
        raise NotPrimitiveError(f"not primitive: {q!r}")
    if len(p) != len(q):
        return None
    n = len(q)
    border: list[int] = []
    k = 0
    for end, x in enumerate(p + p[:-1], start=1):
        if q[k] == x:  # k < n: a full match has returned
            k += 1
        elif k:
            k = match_step(q, border, k, x)
        if k == n:
            i = end - n
            return ConjugacyDecomposition(p[:i], p[i:])
    return None

