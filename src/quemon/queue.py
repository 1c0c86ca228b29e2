"""The queue monoid: action semantics, normal forms, and multiplication.

A basic action over a base alphabet A is a write of a letter (token ``x``)
or a read of a letter (token ``~x``); an action is a nonempty string, and
a[0] == "~" tells a read from a write.  A sequence of actions transforms
queue contents, which are a word over A, or the absorbing error state
BOTTOM: a write appends its letter at the back, a read removes its letter
from the front and fails to BOTTOM when the front differs or the queue is
empty.  Two action sequences are equivalent when they induce the same
transformation on every queue.

Equivalence is generated by three length-preserving rules, each moving one
read a single position to the left (letters a, b, c need not be distinct
unless stated):

    a ~b      ->  ~b a        for a != b
    a ~b ~c   ->  ~b a ~c
    a b ~c    ->  a ~c b

Read left to right these form a terminating and confluent rewriting
system.  The irreducible words are exactly those of the shape

    <u1|u2|u3>  =  reads(u1) . interleave(u2) . writes(u3)

where interleave(a1 ... an) alternates each letter with its own read,
a1 ~a1 a2 ~a2 ...  The triple is the normal form of its class.  Writing
pos(w) for the word of written letters and neg(w) for the word of read
letters, a normal form <u1|u2|u3> has neg = u1 u2, pos = u2 u3, and center
u2; two action sequences are equivalent iff these three words agree.

Products can be computed on normal forms directly: the center of a product
x y is overlap(center(x) . neg(y), pos(x) . center(y)), and the outer
blocks are read off the concatenated projections.

Appending one action to w never shortens pos or neg, and the center moves
exactly like a Knuth-Morris-Pratt matcher of neg against pos whose match
may not exceed the letters written so far.  normal_form is that matcher run
once over w, so it takes linear time.  A write costs one append to pos.  A
read that continues the match lengthens it in place, a read that
mismatches at length 0 leaves it at 0, and only a real fallback calls
match_step, which builds the prefix function of pos at least as far
as the fallback reaches.  multiply and power_mu use the linear overlap of the
words module, which advances its match the same way, and action keeps a
head index into the queue instead of slicing it.  power_mu, which nf_power
calls, matches at most |neg x| + |pos x| letters whatever the exponent:
by Fine and Wilf (1965), a match between powers of neg x and of pos x
that is at least |neg x| + |pos x| - gcd(|neg x|, |pos x|) letters long
has the gcd as a period, and from there on arithmetic on the primitive
period gives the center.  equivalent reads from where two words first
differ: the rules preserve length and swap a read with a write, and pos
and neg are class invariants, so words of unequal lengths, or whose first
or last differing actions are both writes or both reads, are
inequivalent, found at C speed; only the other pairs pay two normal forms.
"""

from __future__ import annotations

from itertools import compress, count
from math import gcd
from operator import ne
from typing import Collection, NamedTuple, Union

from .errors import InternalError, ParseError, PreconditionError
from .words import Letter, Word, match_step, overlap, primitive_root

Action = str  # 'x' writes letter x, '~x' reads letter x; never empty
QueueWord = tuple[Action, ...]

DEFAULT_ALPHABET: tuple[Letter, ...] = tuple("abcdefghijklmnopqrstuvwxyz")


class _BottomType:
    """Absorbing error state of the queue action."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _BottomType()

QueueState = Union[Word, _BottomType]


def action(state: QueueState, w: QueueWord) -> QueueState:
    """Apply the actions of w to the given queue contents.

    BOTTOM is absorbing; a failed read yields BOTTOM.
    """
    if state is BOTTOM:
        return BOTTOM
    queue = list(state)
    head = 0
    for a in w:
        if a[0] == "~":
            if head == len(queue) or queue[head] != a[1:]:
                return BOTTOM
            head += 1
        else:
            queue.append(a)
    return tuple(queue[head:])


class QueueNormalForm(NamedTuple):
    """Irreducible representative <reads|center|writes> of an equivalence class."""

    reads: Word
    center: Word
    writes: Word

    def neg(self) -> Word:
        return self.reads + self.center

    def pos(self) -> Word:
        return self.center + self.writes


NF_IDENTITY = QueueNormalForm((), (), ())


def multiply(x: QueueNormalForm, y: QueueNormalForm) -> QueueNormalForm:
    """Normal form of the product of two classes given in normal form."""
    center = overlap(x.center + y.reads + y.center, x.center + x.writes + y.center)
    neg = x.reads + x.center + y.reads + y.center
    pos = x.center + x.writes + y.center + y.writes
    return _split(neg, center, pos, "product")


def _split(neg: Word, center: Word, pos: Word, what: str) -> QueueNormalForm:
    """The normal form with the given projections and center, after checking
    that the center is a suffix of neg and a prefix of pos."""
    cut = len(neg) - len(center)
    if neg[cut:] != center:
        raise InternalError(f"{what} center is not a suffix of the read projection")
    if pos[: len(center)] != center:
        raise InternalError(f"{what} center is not a prefix of the write projection")
    return QueueNormalForm(neg[:cut], center, pos[len(center):])


def normal_form(w: QueueWord) -> QueueNormalForm:
    """Normal form of an action sequence, in one left-to-right pass.

    The center after each prefix of w is the longest suffix of the letters
    read so far that is a prefix of the letters written so far, reached
    through the previous center: a write leaves it alone, a read of x moves
    it to overlap(center . x, pos).  That is one Knuth-Morris-Pratt step of
    neg against pos, taken in place when x continues the match or the
    match is empty; only a fallback calls match_step, which builds the
    prefix function of pos at least as far as the fallback needs it, and
    never past the letters written so far, so a write only appends to pos.
    The match never exceeds len(pos).
    """
    neg: list[Letter] = []
    pos: list[Letter] = []
    border: list[int] = []  # prefix function of pos, built on demand
    k = 0  # length of the current center
    n = 0  # letters written so far, len(pos)
    for a in w:
        if a[0] != "~":
            pos.append(a)
            n += 1
        else:
            x = a[1:]
            neg.append(x)
            if k < n and pos[k] == x:
                k += 1
            elif k:
                k = match_step(pos, border, k, x)
    return QueueNormalForm(tuple(neg[: len(neg) - k]), tuple(pos[:k]), tuple(pos[k:]))


def nf_power(x: QueueNormalForm, n: int) -> QueueNormalForm:
    """n-th power of a class given in normal form, n >= 0.

    The projections of x^n are neg(x)^n and pos(x)^n, and its center is
    power_mu(x, n), which matches at most |neg x| + |pos x| letters
    whatever n, so the power costs O(n |x|), spent building its output,
    with no repeated products.
    """
    if n < 0:
        raise PreconditionError("exponent must be nonnegative")
    if n == 0:
        return NF_IDENTITY
    return _split(x.neg() * n, power_mu(x, n), x.pos() * n, "power")


def power_mu(x: QueueNormalForm, n: int) -> Word:
    """Center of the n-th power, computed in closed form, n >= 1.

    center(x^n) = overlap(center(x) . neg(x)^(n-1), pos(x)^(n-1) . center(x)):
    with N = neg(x) and P = pos(x), the longest k <= m = |center(x)| +
    (n-1) min(|N|, |P|) for which the last k letters of N^n equal the first
    k of P^n.  Only k <= |N| + |P| are matched, whatever n.  By Fine and
    Wilf (1965), a match of at least |N| + |P| - g letters, g = gcd(|N|,
    |P|), has the period g, so N and P are powers of conjugate words of
    length g.  The rotations of a primitive word differ, so the longer
    matches are those longer by a multiple of p, the length of the
    primitive root of P[:g].  The step is p, not g: in <a|a|a>^3, g = 2,
    p = 1, and the match of length 4 extends to the center a^5.  A shorter
    match is the center: a longer one would imply a match of at least
    |N| + |P| - g letters among those matched.
    """
    if n < 1:
        raise PreconditionError("exponent must be positive")
    neg, pos = x.neg(), x.pos()
    m = len(x.center) + (n - 1) * min(len(neg), len(pos))
    span = len(neg) + len(pos)
    cut = min(m, span)
    if not cut:  # m is 0 when neg or pos is empty
        return ()
    head = (pos * -(-cut // len(pos)))[:cut]
    k = len(overlap((neg * -(-cut // len(neg)))[-cut:], head))
    g = gcd(len(neg), len(pos))
    if k >= span - g:
        p = len(primitive_root(head[:g])[0])
        k += (m - k) // p * p
    return (pos * -(-k // len(pos)))[:k]


def equivalent(u: QueueWord, v: QueueWord) -> bool:
    """Whether u and v act identically on every queue.

    The rewrite rules preserve length, and pos and neg are class
    invariants.  So words of unequal lengths are inequivalent.  Where u and
    v first differ, their prefixes agree; if both actions there are writes,
    pos(u) and pos(v) differ at the same index, and if both are reads, neg
    does.  The same holds for the last difference, counted from the end.
    Every rewrite swaps a read with a write, so only when both differences
    pair a read with a write are the normal forms compared.
    """
    if len(u) != len(v):
        return False
    i = next(compress(count(), map(ne, u, v)), None)
    if i is None:
        return True
    j = next(compress(count(1), map(ne, reversed(u), reversed(v))))
    if (u[i][0] == "~") == (v[i][0] == "~") or (u[-j][0] == "~") == (v[-j][0] == "~"):
        return False
    return normal_form(u) == normal_form(v)


# -- text syntax -------------------------------------------------------------

def parse_queue_word(text: str, alphabet: Collection[Letter] = DEFAULT_ALPHABET) -> QueueWord:
    """Parse an action sequence; ``x`` writes, ``~x`` reads.

    Whitespace between tokens is optional for single-character letters and
    required for longer ones: a chunk that names one letter, with or
    without a leading ``~``, is one token, and any other chunk is read one
    character at a time, a ``~`` marking the next letter as read.
    """
    letter_set = set(alphabet)
    tokens: list[Action] = []
    for chunk in text.split():
        if (chunk[1:] if chunk[0] == "~" else chunk) in letter_set:
            tokens.append(chunk)
            continue
        read = False
        for x in chunk:
            if x == "~" and not read:
                read = True
            elif x not in letter_set:
                raise ParseError(f"unknown letter {x!r} in {chunk!r}")
            else:
                tokens.append("~" + x if read else x)
                read = False
        if read:
            raise ParseError(f"dangling ~ in {chunk!r}")
    return tuple(tokens)


def parse_word(text: str, alphabet: Collection[Letter] = DEFAULT_ALPHABET) -> Word:
    """Parse a plain word over the base alphabet; read tokens are rejected."""
    tokens = parse_queue_word(text, alphabet)
    for t in tokens:
        if t[0] == "~":
            raise ParseError(f"read token {t!r} not allowed in a plain word")
    return tokens


def format_word(w: Word | QueueWord) -> str:
    """A plain or queue word, joined without spaces when each element is
    one character, or ~ and one character, and with spaces otherwise.  Only
    the distinct elements are tested, gathered at C speed."""
    if all(len(x) == 1 or len(x) == 2 and x[0] == "~" for x in set(w)):
        return "".join(w)
    return " ".join(w)


def format_normal_form(nf: QueueNormalForm) -> str:
    return f"<{format_word(nf.reads)}|{format_word(nf.center)}|{format_word(nf.writes)}>"


def format_state(state: QueueState) -> str:
    return "BOTTOM" if state is BOTTOM else format_word(state)
