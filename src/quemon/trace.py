"""Trace monoids: words modulo commutation of independent letters.

A trace word is a plain word together with the independence alphabet it
lives over.  Two words are identified when one can be turned into the
other by repeatedly swapping adjacent independent letters.

Every computation here goes through one canonical form, the dependence
stacks (Diekert & Rozenberg, The Book of Traces, 1995, ch. 2).  Stack y
is the word projected onto D(y), the letters dependent on y (y included),
with y kept and every other letter replaced by an unlabelled marker.  A
swap of adjacent independent letters never changes a stack, and the
stacks determine the trace (the projection lemma), so two words are
equivalent exactly when their stacks are equal.  Building them costs one
push per position and dependent letter, O(n * deg).

The lexicographically least member of a class is its normal form.  A
letter can come first exactly when it tops its own stack; the least such
letter x is emitted and one entry popped from each stack of D(x), which
leaves the stacks of the rest of the word.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence

from .alphabet import IndependenceAlphabet
from .errors import AlphabetMismatchError, PreconditionError
from .words import Letter, Word


class TraceWord:
    """A word over an independence alphabet; every letter must belong to it.

    Immutable, compared and hashed by (alphabet, word); len() is the length
    of the word.
    """

    __slots__ = ("alphabet", "word")

    def __init__(self, alphabet: IndependenceAlphabet, word: Word) -> None:
        for x in word:
            if x not in alphabet:
                raise PreconditionError(f"letter {x!r} not in the alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "word", word)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"TraceWord(alphabet={self.alphabet!r}, word={self.word!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.word) == (other.alphabet, other.word)  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.alphabet, self.word))

    def __reduce__(self) -> tuple:
        return (TraceWord, (self.alphabet, self.word))

    def __mul__(self, other: "TraceWord") -> "TraceWord":
        if self.alphabet != other.alphabet:
            raise AlphabetMismatchError("cannot concatenate over different alphabets")
        return TraceWord(self.alphabet, self.word + other.word)

    def __len__(self) -> int:
        return len(self.word)


def _stacks(u: TraceWord) -> list[list[bool]]:
    """Dependence stacks of u, indexed by rank, with the first position on top.

    An entry is True where the stack's own letter stands and False for a
    marker.
    """
    g = u.alphabet
    stacks: list[list[bool]] = [[] for _ in g.letters]
    dep = {x: (g.rank(x), g.dependent_ranks(x)) for x in set(u.word)}
    for x in reversed(u.word):
        i, ranks = dep[x]
        for j in ranks:
            stacks[j].append(j == i)
    return stacks


def lex_normal_form(u: TraceWord, order: Sequence[Letter] | None = None) -> TraceWord:
    """Least representative of u's class in the length-lexicographic order.

    The order on letters defaults to declaration order.  The letters that
    may come first are those on top of their own dependence stack; a heap
    keyed by the order yields the least, whose pop from the stacks of its
    dependent letters may expose new ones.  O(n * (deg + log |letters|)).
    """
    g = u.alphabet
    if order is None:
        key = list(range(len(g.letters)))
    else:
        rank = {x: i for i, x in enumerate(order)}
        for x in g.letters:
            if x not in rank:
                raise PreconditionError(f"order is missing letter {x!r}")
        key = [rank[x] for x in g.letters]
    stacks = _stacks(u)
    heap = [(key[i], i) for i, s in enumerate(stacks) if s and s[-1]]
    heapify(heap)
    out: list[Letter] = []
    while heap:
        x = g.letters[heappop(heap)[1]]
        out.append(x)
        # no letter of D(x) other than x can be on the heap: it would have
        # to precede x's first occurrence, and then x could not come first
        for j in g.dependent_ranks(x):
            s = stacks[j]
            s.pop()
            if s and s[-1]:
                heappush(heap, (key[j], j))
    return TraceWord(g, tuple(out))


def trace_equivalent(u: TraceWord, v: TraceWord) -> bool:
    """Whether u and v denote the same trace: equal dependence stacks."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot compare over different alphabets")
    if len(u.word) != len(v.word):
        return False
    return _stacks(u) == _stacks(v)

