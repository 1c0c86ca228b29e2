"""Trace monoids: words modulo commutation of independent letters.

A trace word is a plain word together with the independence alphabet it
lives over.  Two words are identified when one can be turned into the
other by repeatedly swapping adjacent independent letters.

Every computation here goes through one canonical form, the occurrence
offsets.  Position i holding x has offset i - sum over z in I(x) of
#z(before i), the number of letters of D(x) before it, at one step per
letter independent of x.  x's offsets are its positions in its dependence
stack, the projection onto D(x) with the other letters as unlabelled
markers (Diekert & Rozenberg, The Book of Traces, 1995, ch. 2).  A swap of
independent letters changes no offset, and the stacks determine the trace
(the projection lemma), so two words are equivalent exactly when every
letter has the same offsets in both.  A trace monoid is cancellative on
both sides, so trace_equivalent compares the offsets of the two words
between their common prefix and common suffix only.

A class's normal form is its least member in declared letter order.  x can
come first when its target, its offset plus the emitted letters of I(x),
equals the number of letters emitted.  The first unemitted position holds
such a letter k, and any other is independent of k, as it stands behind k.
So one scan of the word emits the least of them, skipping each occurrence
emitted ahead of it, since a letter's occurrences leave in word order.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne
from typing import TYPE_CHECKING

from .alphabet import IndependenceAlphabet
from .errors import AlphabetMismatchError, PreconditionError

if TYPE_CHECKING:
    from .words import Letter, Word


class TraceWord:
    """A word over an independence alphabet; every letter must belong to it.

    Immutable, compared and hashed by (alphabet, word); len() is the length
    of the word.
    """

    __slots__ = ("alphabet", "word")

    def __init__(self, alphabet: IndependenceAlphabet, word: Word) -> None:
        word = tuple(word)
        if set(word).difference(alphabet._rank):
            x = next(x for x in word if x not in alphabet)
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


def _offsets(g: IndependenceAlphabet, word: Word) -> dict[Letter, list[int]]:
    """The offsets of each letter of a word over g, in increasing order."""
    offs: dict[Letter, list[int]] = {x: [] for x in set(word)}
    # before position i, len(offs[z]) is #z(before i)
    step = {x: (o.append, [offs[z] for z in g.neighbors(x) if z in offs])
            for x, o in offs.items()}
    for i, x in enumerate(word):
        push, independent = step[x]
        push(i - sum(map(len, independent)) if independent else i)
    return offs


def lex_normal_form(u: TraceWord) -> TraceWord:
    """Least representative of u's class in the length-lexicographic order.

    Letters rank as the alphabet declares them; for another order, declare
    the alphabet in it.  O(n * (d + 1) + |letters| log |letters|), where d
    is the largest independence degree among the letters of u.
    """
    g = u.alphabet
    offs = _offsets(g, u.word)
    letters = sorted(offs, key=g.rank)
    # from here on a letter is its position in `letters`
    pos = {x: k for k, x in enumerate(letters)}
    # neighbours come in declaration order, so each independent[k] ascends;
    # only targets with a later partner are read
    independent = [[pos[z] for z in g.neighbors(x) if z in pos] for x in letters]
    earlier = [[z for z in zs if z < k] for k, zs in enumerate(independent)]
    bumps = [[z for z in zs if independent[z][-1] > z] for zs in independent]
    occ = [offs[x][::-1] for x in letters]
    target = [o[-1] for o in occ]
    ahead = [0] * len(letters)  # emitted occurrences the scan has not reached
    out: list[Letter] = []
    done = 0
    for k in map(pos.__getitem__, u.word):
        while not ahead[k]:
            for c in earlier[k]:
                if target[c] == done:
                    break
            else:
                c = k
            out.append(letters[c])
            done += 1
            for z in bumps[c]:
                target[z] += 1
            o = occ[c]
            last = o.pop()
            target[c] = done - 1 + o[-1] - last if o else -1
            ahead[c] += 1
        ahead[k] -= 1
    return TraceWord(g, out)


def trace_equivalent(u: TraceWord, v: TraceWord) -> bool:
    """Whether u and v denote the same trace.

    A trace monoid is cancellative on both sides, so p x s and p y s are
    equivalent exactly when x and y are: only the words between the common
    prefix and the common suffix are compared, by their occurrence offsets.
    """
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot compare over different alphabets")
    a, b = u.word, v.word
    if len(a) != len(b):
        return False
    i = next(compress(count(), map(ne, a, b)), None)
    if i is None:
        return True
    j = len(a) - next(compress(count(), map(ne, reversed(a), reversed(b))))
    g = u.alphabet
    return _offsets(g, a[i:j]) == _offsets(g, b[i:j])
