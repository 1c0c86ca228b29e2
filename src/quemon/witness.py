"""Verified witness equations showing letter images must commute or align.

Each builder takes queue-monoid elements satisfying structural hypotheses,
derives exponent vectors by closed-form integer formulas, assembles the
two sides of an equation, and verifies the equation by normal forms before
returning it.  A report with verified=False is never returned; a failed
check raises VerificationFailedError instead.  Exponents can grow with the
square of the input, so a side of more than 10**7 actions raises
CapExceededError before it is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Sequence

from .errors import (
    CapExceededError,
    EmptyWordError,
    InternalError,
    PreconditionError,
    VerificationFailedError,
)
from .queue import (
    QueueNormalForm,
    QueueWord,
    equivalent,
    format_word,
    normal_form,
    project_neg,
    project_pos,
)
from .words import (
    ConjugacyDecomposition,
    Word,
    conjugacy_decomposition,
    is_primitive,
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
    y list the exponents of the three factors on each side.
    """

    kind: str
    x: tuple[int, ...]
    y: tuple[int, ...] | None
    lhs: QueueWord
    rhs: QueueWord
    verified: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "x": list(self.x),
            "y": None if self.y is None else list(self.y),
            "lhs": format_word(self.lhs),
            "rhs": format_word(self.rhs),
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


def _power_product(factors: Sequence[QueueWord], exponents: Sequence[int]) -> QueueWord:
    """factors[0]^exponents[0] factors[1]^exponents[1] ... as one action word.

    Raises CapExceededError, before building anything, when the word would
    have more than _MAX_SIDE_ACTIONS actions.
    """
    size = sum(map(mul, map(len, factors), exponents))
    if size > _MAX_SIDE_ACTIONS:
        raise CapExceededError(
            f"a side of the equation would have {size} actions, over the cap of {_MAX_SIDE_ACTIONS}"
        )
    return tuple(_PowerProduct(factors, exponents, size))


class _PowerProduct:
    """The actions of a product of powers, and their number.

    tuple() reads the length from len() and allocates the word once, at its
    final size, while the actions stream in: no power of a factor and no
    prefix of the word is built.  Concatenating the powers holds a prefix
    next to its copy, up to twice the word, and a tuple grown from an
    iterator of unknown length is reallocated step by step, which leaves
    the allocator holding more memory after many small witnesses.
    """

    __slots__ = ("factors", "exponents", "size")

    def __init__(self, factors: Sequence[QueueWord], exponents: Sequence[int], size: int) -> None:
        self.factors, self.exponents, self.size = factors, exponents, size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[str]:
        chain = itertools.chain.from_iterable
        return chain(chain(map(itertools.repeat, self.factors, self.exponents)))


def _verify(kind: str, x, y, lhs: tuple, rhs: tuple) -> WitnessReport:
    """The report on lhs = rhs, each side given as (factors, exponents) and
    built by _power_product; raises VerificationFailedError unless the two
    sides are equivalent."""
    lhs, rhs = _power_product(*lhs), _power_product(*rhs)
    if not equivalent(lhs, rhs):
        raise VerificationFailedError(
            f"{kind} equation failed its normal-form check: "
            f"{format_word(lhs)} vs {format_word(rhs)}"
        )
    return WitnessReport(kind, tuple(x), None if y is None else tuple(y), lhs, rhs, True)


def p2p3_witness(u: QueueWord, v: QueueWord, w: QueueWord) -> WitnessReport:
    """Nontrivial identity u^xu v^xv u w^xw = u^yu w^yw u v^yv.

    Requires nonempty u, v, w where u only writes, v and w commute, and v
    and w are inequivalent.  The exponents for v and w come from a case
    split on the exponents of the shared primitive roots of the write and
    read projections; u's exponent is the least one making the write block
    long enough to absorb all reads to its right.
    """
    _require(bool(u) and bool(v) and bool(w), "u, v, w must be nonempty")
    _require(not project_neg(u), "u must not read")
    _require(equivalent(v + w, w + v), "v and w must commute")
    _require(not equivalent(v, w), "v and w must be inequivalent")

    a_v, a_w = _common_root_exponents(project_pos(v), project_pos(w))
    b_v, b_w = _common_root_exponents(project_neg(v), project_neg(w))

    x_v, x_w = _p2p3_exponents(a_v, a_w, b_v, b_w)
    reads = len(project_neg(v)) * x_v + len(project_neg(w)) * x_w
    x_u = -(-reads // len(u))
    x = (x_u, x_v, x_w)
    report = _verify("p2p3", x, x, ((u, v, u, w), (x_u, x_v, 1, x_w)),
                     ((u, w, u, v), (x_u, x_w, 1, x_v)))
    if x_v + x_w == 0:
        raise InternalError("trivial exponents for v and w")
    return report


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

    a = tuple(_positive_exponent(project_pos(x), p, "write") for x in (u, v, w))
    b = tuple(_positive_exponent(project_neg(x), q, "read") for x in (u, v, w))
    x0, y0 = _solve_projection_system(a, b, min_entry=0)
    n = _long_enough_shift(a, b, x0, y0, len(p), len(q))
    xs = tuple(e + n for e in x0)
    ys = tuple(e + n for e in y0)
    report = _verify("nonconjugated", xs, ys, ((u, v, w), xs), ((u, v, w), ys))
    if xs == ys:
        raise InternalError("exponent vectors collapsed")
    return report


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
    profiles = tuple(_conjugacy_profile(normal_form(x), dec) for x in words)

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

    report = _verify(f"conjugated:{name}", x, y, (rwords, x), (rwords, y))
    if x == y:
        raise InternalError("exponent vectors collapsed")
    return report


def p4_witness(t: QueueWord, u: QueueWord, v: QueueWord, w: QueueWord) -> WitnessReport:
    """Identity u^x1 v^xv w t^xt w^xw u^x2 = u^x1 w u^x2 w^xw t^xt v^xv.

    Requires nonempty t, u, v, w where u only writes, v only reads, v and w
    commute, and t and u commute.  The exponents come from the primitive
    roots of u's write projection and v's read projection; the report's x
    lists (x_t, x_u1, x_u2, x_v, x_w) and y is None.
    """
    _require(all((t, u, v, w)), "t, u, v, w must be nonempty")
    _require(not project_neg(u), "u must not read")
    _require(not project_pos(v), "v must not write")
    _require(equivalent(v + w, w + v), "v and w must commute")
    _require(equivalent(t + u, u + t), "t and u must commute")

    a_u, a_t = _common_root_exponents(project_pos(u), project_pos(t))
    b_v, b_w = _common_root_exponents(project_neg(v), project_neg(w))

    reads = (
        len(project_neg(v)) * b_w
        + len(project_neg(w)) * (1 + b_v)
        + len(project_neg(t)) * a_u
    )
    x_u1 = -(-reads // len(u))
    x = (a_u, x_u1, a_t, b_w, b_v)
    report = _verify("p4", x, None, ((u, v, w, t, w, u), (x_u1, b_w, 1, a_u, b_v, a_t)),
                     ((u, w, u, w, t, v), (x_u1, 1, a_t, b_v, a_u, b_w)))
    if a_u == 0 or b_v == 0:
        raise InternalError("trivial exponents for t and w")
    return report
