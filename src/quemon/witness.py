"""Verified witness equations showing letter images must commute or align.

Each builder takes queue-monoid elements satisfying structural hypotheses,
normalises each distinct factor once, reads its checks and the projections
its exponent formulas need off those normal forms, derives exponent
vectors by closed-form integer formulas, and verifies the equation before
returning it.  A report with verified=False is never returned; a failed
check raises VerificationFailedError instead.

The check works on the factors' normal forms, not on the flat sides.  A
side's neg and pos are its factors' projections repeated by tuple
arithmetic, and where its center may start follows from each factor's
read block and exponent.  Two sides with equal neg and pos then differ
only if one overlap of neg against pos, from the earlier start, ends
before the later start (Huschenbett, Kuske and Zetzsche, "The monoid of
queue actions", 2017, for the normal forms).  Exponents can grow with the
square of the input, so a side of more than 10**7 actions raises
CapExceededError before anything is built.  The report keeps each side as
its factors and exponents, a sequence that builds the flat word only when
it is hashed, printed or sliced, or compared with a tuple or with a side
of other factors.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import index, mul

from .errors import (
    CapExceededError,
    EmptyWordError,
    InternalError,
    PreconditionError,
    VerificationFailedError,
)
from .queue import QueueNormalForm, QueueWord, equivalent, format_word, normal_form
from .words import (
    ConjugacyDecomposition,
    Word,
    conjugacy_decomposition,
    is_primitive,
    overlap,
    power_exponent,
    primitive_root,
)

_MAX_SIDE_ACTIONS = 10**7  # actions on one side of a witness equation


@dataclass(frozen=True)
class WitnessReport:
    """A verified equation between two products of powers.

    kind is one of 'p2p3', 'nonconjugated', 'conjugated:trivial',
    'conjugated:vwu', 'conjugated:wuv', or 'p4'.  For 'p4' the x vector has
    five entries (x_t, x_u1, x_u2, x_v, x_w) and y is None; otherwise x and
    y list the exponents of the three factors on each side.  lhs and rhs
    are sequences of actions held as their factors and exponents; they
    compare, hash and print as the flat tuple, which is built on demand.
    """

    kind: str
    x: tuple[int, ...]
    y: tuple[int, ...] | None
    lhs: Sequence[str]
    rhs: Sequence[str]
    verified: bool

    def to_json(self) -> dict:
        # format_word reads a side twice, which a flat tuple does fastest
        return {
            "kind": self.kind,
            "x": list(self.x),
            "y": None if self.y is None else list(self.y),
            "lhs": format_word(tuple(self.lhs)),
            "rhs": format_word(tuple(self.rhs)),
            "verified": self.verified,
        }


# -- exact linear algebra -----------------------------------------------------

def _kernel_vector(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    """The primitive kernel vector of the rows a and b, first nonzero entry
    positive, that Gaussian elimination setting the first free variable to
    one picks: the cross product a x b for independent rows; for
    proportional ones, with r the nonzero row, c0 its pivot column and f
    the least other column, r[c0] at f, -r[f] at c0 and zero elsewhere.
    """
    z = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    if not any(z):
        r = a if any(a) else b
        c0 = next(c for c in range(3) if r[c])
        f = 1 if c0 == 0 else 0
        z = [0, 0, 0]
        z[f], z[c0] = r[c0], -r[f]
    g = math.gcd(*z) if next(e for e in z if e) > 0 else -math.gcd(*z)
    return z[0] // g, z[1] // g, z[2] // g


def _solve_projection_system(
    a: Sequence[int], b: Sequence[int], min_entry: int = 0
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Distinct vectors x, y over the naturals with a.x = a.y and b.x = b.y.

    All six entries are at least min_entry.  Found by taking an integer
    kernel vector of the two rows, splitting it into its positive and
    negative parts, and shifting both sides by the same constant, which
    preserves the equations because the coefficient rows are shared.  The
    builders pass rows of three positive exponents.
    """
    z = _kernel_vector(a, b)
    x = tuple(max(zi, 0) + min_entry for zi in z)
    y = tuple(max(-zi, 0) + min_entry for zi in z)
    if sum(ai * xi for ai, xi in zip(a, x)) != sum(ai * yi for ai, yi in zip(a, y)):
        raise InternalError("kernel vector fails the first row")
    if sum(bi * xi for bi, xi in zip(b, x)) != sum(bi * yi for bi, yi in zip(b, y)):
        raise InternalError("kernel vector fails the second row")
    return x, y  # type: ignore[return-value]


# -- witness builders ---------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _normal_forms(*words: QueueWord) -> dict[QueueWord, QueueNormalForm]:
    """The normal form of each distinct word, computed once."""
    return {x: normal_form(x) for x in set(words)}


class _PowerProduct(Sequence):
    """The actions of factors[0]^exponents[0] factors[1]^exponents[1] ...,
    an immutable sequence held as its factors and exponents.

    The constructor raises CapExceededError, before anything is built, when
    there are more than _MAX_SIDE_ACTIONS.  len() is stored, iteration and
    reversed() chain the powers, and an index walks the factors.  Two
    products with equal factors and exponents are equal without being
    expanded; any other == compares the flat word with a tuple or another
    product, and hash, repr, slices and + are those of the flat tuple,
    built on demand.  tuple() reads the length from len() and allocates
    the word once, at its final size, while the actions stream in: no
    power of a factor and no prefix of the word is built.  Concatenating
    the powers holds a prefix next to its copy, up to twice the word, and
    a tuple grown from an iterator of unknown length is reallocated step
    by step, which leaves the allocator holding more memory after many
    small witnesses.
    """

    __slots__ = ("factors", "exponents", "size")

    def __init__(self, factors: Sequence[QueueWord], exponents: Sequence[int]) -> None:
        size = sum(map(mul, map(len, factors), exponents))
        if size > _MAX_SIDE_ACTIONS:
            raise CapExceededError(
                f"a side of the equation would have {size} actions, over the cap of {_MAX_SIDE_ACTIONS}"
            )
        self.factors, self.exponents, self.size = tuple(factors), tuple(exponents), size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[str]:
        chain = itertools.chain.from_iterable
        return chain(chain(map(itertools.repeat, self.factors, self.exponents)))

    def __reversed__(self) -> Iterator[str]:
        chain = itertools.chain.from_iterable
        backwards = [f[::-1] for f in reversed(self.factors)]
        return chain(chain(map(itertools.repeat, backwards, reversed(self.exponents))))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = index(i)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("power product index out of range")
        for f, e in zip(self.factors, self.exponents):
            block = len(f) * e
            if i < block:
                return f[i % len(f)]
            i -= block

    def __eq__(self, other) -> bool:
        if type(other) is _PowerProduct:
            if self.factors == other.factors and self.exponents == other.exponents:
                return True
        elif not isinstance(other, tuple):
            return NotImplemented
        return self.size == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, _PowerProduct)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return other + tuple(self)
        return NotImplemented


def _side_projections(
    forms: Mapping[QueueWord, QueueNormalForm], factors: Sequence[QueueWord],
    exponents: Sequence[int],
) -> tuple[Word, Word, int]:
    """neg and pos of a product of powers, and s0, where its center may start.

    A center starting at neg[s] pairs the read neg[s + i] with the write
    pos[i], which comes before it, so s must exceed reads minus writes
    before each read from neg[s] on; before an earlier read that count is
    below s anyway.  s0 is the least such s >= 0, and the center is
    overlap(neg[s0:], pos).  Each factor is taken in its normal form
    <r|c|w>, whose reads see at most |r| - 1 more reads than writes since
    the factor began, so a copy that reads asks for s > excess + |r| - 1,
    with excess counted before the copy.  Each copy adds |r| - |w| to the
    excess, so over e copies the last one asks most when |r| > |w|, and
    the first one otherwise.  A copy with r empty asks for at most s >=
    excess, which s0 already meets: the excess grows only through copies
    with |r| > |w|, each asking for at least the excess after it.
    """
    neg = pos = ()
    excess = s0 = 0  # reads minus writes before the factor; the start so far
    for f, e in zip(factors, exponents):
        r, c, w = forms[f]
        step = len(r) - len(w)
        if e:
            start = excess + len(r) + (e - 1) * step if step > 0 else excess + len(r)
            if start > s0:
                s0 = start
        excess += e * step
        neg += (r + c) * e
        pos += (c + w) * e
    return neg, pos, s0


def _sides_agree(forms: Mapping[QueueWord, QueueNormalForm], lhs: tuple, rhs: tuple) -> bool:
    """Whether lhs and rhs, each (factors, exponents), are equivalent; forms
    maps every factor to its normal form.

    Two words are equivalent iff their neg, pos and centers agree.  With
    neg and pos equal, the center found from the earlier start s0 is the
    longest candidate for both sides when it begins at or after the later
    start, and else the later side cannot reach it, so one overlap decides.
    Equal starts give equal centers and need none.
    """
    neg, pos, s_lhs = _side_projections(forms, *lhs)
    neg_rhs, pos_rhs, s_rhs = _side_projections(forms, *rhs)
    if neg != neg_rhs or pos != pos_rhs:
        return False
    lo, hi = (s_lhs, s_rhs) if s_lhs < s_rhs else (s_rhs, s_lhs)
    return lo == hi or len(overlap(neg[lo:], pos)) <= len(neg) - hi


def _verify(
    kind: str, x, y, forms: Mapping[QueueWord, QueueNormalForm], lhs: tuple, rhs: tuple
) -> WitnessReport:
    """The report on lhs = rhs, each side given as (factors, exponents),
    where forms maps every factor to its normal form.  Both sides are
    checked against the cap and compared by _sides_agree, and the report
    keeps them as power products; raises VerificationFailedError unless
    they agree."""
    lhs_word, rhs_word = _PowerProduct(*lhs), _PowerProduct(*rhs)
    if not _sides_agree(forms, lhs, rhs):
        raise VerificationFailedError(
            f"{kind} equation failed its normal-form check: "
            f"{format_word(lhs_word)} vs {format_word(rhs_word)}"
        )
    return WitnessReport(kind, tuple(x), None if y is None else tuple(y), lhs_word, rhs_word, True)


def p2p3_witness(u: QueueWord, v: QueueWord, w: QueueWord) -> WitnessReport:
    """Nontrivial identity u^xu v^xv u w^xw = u^yu w^yw u v^yv.

    Requires nonempty u, v, w where u only writes, v and w commute, and v
    and w are inequivalent.  The exponents for v and w come from a case
    split on the exponents of the shared primitive roots of the write and
    read projections; u's exponent is the least one making the write block
    long enough to absorb all reads to its right.
    """
    _require(bool(u) and bool(v) and bool(w), "u, v, w must be nonempty")
    forms = _normal_forms(u, v, w)
    nu, nv, nw = forms[u], forms[v], forms[w]
    _require(not nu.neg(), "u must not read")
    _require(equivalent(v + w, w + v), "v and w must commute")
    _require(nv != nw, "v and w must be inequivalent")

    neg_v, neg_w = nv.neg(), nw.neg()
    a_v, a_w = _common_root_exponents(nv.pos(), nw.pos())
    b_v, b_w = _common_root_exponents(neg_v, neg_w)

    x_v, x_w = _p2p3_exponents(a_v, a_w, b_v, b_w)
    reads = len(neg_v) * x_v + len(neg_w) * x_w
    x_u = -(-reads // len(u))
    x = (x_u, x_v, x_w)
    if x_v + x_w == 0:
        raise InternalError("trivial exponents for v and w")
    return _verify("p2p3", x, x, forms, ((u, v, u, w), (x_u, x_v, 1, x_w)),
                   ((u, w, u, v), (x_u, x_w, 1, x_v)))


def _p2p3_exponents(a_v: int, a_w: int, b_v: int, b_w: int) -> tuple[int, int]:
    """Exponents of v and w, the same on both sides of the p2p3 equation.

    a and b are the exponents of the write and read projections over their
    shared roots.  Proportional pairs (a_v, b_v), (a_w, b_w) take
    (a_w + b_w, a_v + b_v); otherwise the system a_v x_v = a_w y_w,
    a_w x_w = a_v y_v, b_v (x_v - y_v) + b_w (x_w - y_w) = 0 has rank three
    and its one primitive solution is x = y = (a_w, a_v) / gcd(a_v, a_w).
    """
    if a_v == 0:
        return 1, 0
    if a_w == 0:
        return 0, 1
    if a_v * b_w == a_w * b_v:
        return a_w + b_w, a_v + b_v
    g = math.gcd(a_v, a_w)
    return a_w // g, a_v // g


def _common_root_exponents(first: Word, second: Word) -> tuple[int, int]:
    """Exponents of both words over their shared primitive root.

    An empty projection is the zeroth power of any root, the empty one when
    both are empty; words known to commute always share a root, so a
    mismatch is an internal error.
    """
    root = primitive_root(first or second)[0] if first or second else ()
    e1, e2 = power_exponent(first, root), power_exponent(second, root)
    if e2 is None:
        raise InternalError("commuting projections with different roots")
    return e1, e2


def nonconjugated_witness(
    u: QueueWord, v: QueueWord, w: QueueWord, p: Word, q: Word
) -> WitnessReport:
    """Identity u^xu v^xv w^xw = u^yu v^yv w^yw with x distinct from y.

    p and q must be primitive and not conjugate; the write projections of
    u, v, w must be positive powers of p and the read projections positive
    powers of q.  Exponent vectors solve the projection-length system and
    are then enlarged uniformly by the least amount that makes both sides
    long enough that the central factor is pinned by the projections alone.
    """
    if not p or not q:
        raise EmptyWordError("p and q must be nonempty")
    _require(is_primitive(p), f"p is not primitive: {p!r}")
    _require(is_primitive(q), f"q is not primitive: {q!r}")
    if len(p) == len(q) and conjugacy_decomposition(p, q) is not None:
        raise PreconditionError("p and q must not be conjugate")

    forms = _normal_forms(u, v, w)
    a = tuple(_positive_exponent(forms[x].pos(), p, "write") for x in (u, v, w))
    b = tuple(_positive_exponent(forms[x].neg(), q, "read") for x in (u, v, w))
    x0, y0 = _solve_projection_system(a, b, min_entry=0)
    n = _long_enough_shift(a, b, x0, y0, len(p), len(q))
    xs = tuple(e + n for e in x0)
    ys = tuple(e + n for e in y0)
    if xs == ys:
        raise InternalError("exponent vectors collapsed")
    return _verify("nonconjugated", xs, ys, forms, ((u, v, w), xs), ((u, v, w), ys))


def _long_enough_shift(
    a: Sequence[int], b: Sequence[int], x0: Sequence[int], y0: Sequence[int],
    len_p: int, len_q: int,
) -> int:
    """Least n >= 0 such that, with n added to every exponent of x0 and of
    y0, the last factor reads and the first two write |p| + |q| letters or
    more on both sides.

    Both lengths grow linearly in n, by b_w |q| and (a_u + a_v) |p|, so
    each bound is a ceiling division.
    """
    need = len_p + len_q
    reads = -(-need // (b[2] * len_q))
    writes = -(-need // len_p)
    return max(
        0,
        *(reads - vec[2] for vec in (x0, y0)),
        *(-((a[0] * vec[0] + a[1] * vec[1] - writes) // (a[0] + a[1]))
          for vec in (x0, y0)),
    )


def _positive_exponent(proj: Word, base: Word, which: str) -> int:
    e = power_exponent(proj, base)
    if not e:
        raise PreconditionError(
            f"{which} projection {proj!r} is not a positive power of {base!r}"
        )
    return e


# -- powers with conjugate roots ----------------------------------------------

def _conjugacy_profile(
    x: QueueNormalForm, dec: ConjugacyDecomposition
) -> tuple[int, int, int]:
    """Parameters (a, b, c) of an element whose projections are powers of p, q.

    a and b are the positive exponents with pos = p^a and neg = q^b; c is
    -1 when the center is shorter than g and |center| // |q| otherwise.
    """
    a = _positive_exponent(x.pos(), dec.p, "write")
    b = _positive_exponent(x.neg(), dec.q, "read")
    if len(x.center) < len(dec.g):
        c = -1
    else:
        c = len(x.center) // len(dec.q)
    return a, b, c


def _mixed_rows(
    profiles: Sequence[tuple[int, int, int]], x: Sequence[int]
) -> tuple[int, int, int]:
    (a_u, b_u, c_u), (a_v, b_v, c_v), (a_w, b_w, c_w) = profiles
    x_u, x_v, x_w = x
    m_u, m_v, m_w = min(a_u, b_u), min(a_v, b_v), min(a_w, b_w)
    return (
        m_u * x_u + b_v * x_v + b_w * x_w + c_u - m_u,
        a_u * x_u + m_v * x_v + b_w * x_w + c_v - m_v,
        a_u * x_u + a_v * x_v + m_w * x_w + c_w - m_w,
    )


def _mixed_exponent(profiles: Sequence[tuple[int, int, int]], x: Sequence[int]) -> int:
    """Exponent X with center(u^xu v^xv w^xw) = g q^X for conjugate roots.

    profiles lists (a, b, c) for the three factors as produced by
    _conjugacy_profile, with a, b >= 1; every exponent in x is >= 2.
    X is the least of three affine forms, one per factor, each charging the
    factors to its left by their write exponents and those to its right by
    their read exponents.
    """
    return min(_mixed_rows(profiles, x))


def _dominating_shift(
    profiles: Sequence[tuple[int, int, int]], x0: Sequence[int], y0: Sequence[int],
    coord: int,
) -> int:
    """Least k >= 0 such that, with coordinate coord of x0 and of y0 raised
    by k, row coord of the center formula is the minimum on both sides.

    coord is 0 for a first factor writing more than it reads and 2 for a
    last factor reading more than it writes.  Each step adds min(a, b) of
    that factor to its own row and max(a, b) to the other two, so each gap
    shrinks by |a - b| > 0; the own row's zero gap keeps k nonnegative.
    """
    a, b, _ = profiles[coord]
    d = abs(a - b)
    return max(
        -((rows[j] - rows[coord]) // d)
        for rows in (_mixed_rows(profiles, x0), _mixed_rows(profiles, y0))
        for j in range(3)
    )


_ROTATIONS = (("trivial", (0, 1, 2)), ("vwu", (1, 2, 0)), ("wuv", (2, 0, 1)))


def conjugated_witness(
    u: QueueWord, v: QueueWord, w: QueueWord, dec: ConjugacyDecomposition
) -> WitnessReport:
    """Identity between two products of powers for conjugate roots p = gh, q = hg.

    The write projections of u, v, w must be positive powers of p and the
    read projections positive powers of q.  The inputs are rotated so that
    either all factors are balanced, the first writes more than it reads,
    or the last reads more than it writes; exponents solve the projection
    system with entries at least two and one coordinate is raised by the
    least amount that makes the designated row of the center formula the
    minimum on both sides.
    """
    words = (u, v, w)
    forms = _normal_forms(*words)
    profiles = tuple(_conjugacy_profile(forms[x], dec) for x in words)

    name, idx, coord = "trivial", (0, 1, 2), None
    if any(a != b for a, b, _ in profiles):
        # the first rotation whose first factor writes more than it reads,
        # else the first whose last factor reads more than it writes
        for coord, (name, idx) in itertools.product((0, 2), _ROTATIONS):
            a, b, _ = profiles[idx[coord]]
            if a > b if coord == 0 else a < b:
                break
        else:
            raise InternalError("no rotation applicable to unbalanced input")

    rwords = tuple(words[i] for i in idx)
    rprof = tuple(profiles[i] for i in idx)
    x0, y0 = _solve_projection_system([p[0] for p in rprof], [p[1] for p in rprof], min_entry=2)
    k = 0 if coord is None else _dominating_shift(rprof, x0, y0, coord)
    x = tuple(e + k if i == coord else e for i, e in enumerate(x0))
    y = tuple(e + k if i == coord else e for i, e in enumerate(y0))

    if _mixed_exponent(rprof, x) != _mixed_exponent(rprof, y):
        raise InternalError("center exponents of the two sides disagree")
    if x == y:
        raise InternalError("exponent vectors collapsed")
    return _verify(f"conjugated:{name}", x, y, forms, (rwords, x), (rwords, y))


def p4_witness(t: QueueWord, u: QueueWord, v: QueueWord, w: QueueWord) -> WitnessReport:
    """Identity u^x1 v^xv w t^xt w^xw u^x2 = u^x1 w u^x2 w^xw t^xt v^xv.

    Requires nonempty t, u, v, w where u only writes, v only reads, v and w
    commute, and t and u commute.  The exponents come from the primitive
    roots of u's write projection and v's read projection; the report's x
    lists (x_t, x_u1, x_u2, x_v, x_w) and y is None.
    """
    _require(all((t, u, v, w)), "t, u, v, w must be nonempty")
    forms = _normal_forms(t, u, v, w)
    nt, nu, nv, nw = forms[t], forms[u], forms[v], forms[w]
    _require(not nu.neg(), "u must not read")
    _require(not nv.pos(), "v must not write")
    _require(equivalent(v + w, w + v), "v and w must commute")
    _require(equivalent(t + u, u + t), "t and u must commute")

    neg_v, neg_w = nv.neg(), nw.neg()
    a_u, a_t = _common_root_exponents(nu.pos(), nt.pos())
    b_v, b_w = _common_root_exponents(neg_v, neg_w)

    reads = len(neg_v) * b_w + len(neg_w) * (1 + b_v) + len(nt.neg()) * a_u
    x_u1 = -(-reads // len(u))
    x = (a_u, x_u1, a_t, b_w, b_v)
    if a_u == 0 or b_v == 0:
        raise InternalError("trivial exponents for t and w")
    return _verify("p4", x, None, forms,
                   ((u, v, w, t, w, u), (x_u1, b_w, 1, a_u, b_v, a_t)),
                   ((u, w, u, w, t, v), (x_u1, 1, a_t, b_v, a_u, b_w)))
