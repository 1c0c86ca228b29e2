"""Seeded input generators.

Every generator takes a ``random.Random`` and uses nothing else that
varies, so one seed always yields the same inputs.  None of them calls
quemon: classes, verdicts and equivalences are planted by construction,
which is what lets the checkers in ``checks.py`` judge the program's
answers without running the code being timed.
"""

from __future__ import annotations

import random
import string

LETTERS = string.ascii_lowercase


# -- plain words and queue words ------------------------------------------------

def is_primitive(w) -> bool:
    """True when w is nonempty and no proper rotation of w equals w."""
    w = tuple(w)
    return bool(w) and all(w[d:] + w[:d] != w for d in range(1, len(w)) if len(w) % d == 0)


def primitive_word(rng: random.Random, length: int, letters: str) -> tuple:
    while True:
        w = tuple(rng.choice(letters) for _ in range(length))
        if is_primitive(w):
            return w


def distinct_word(rng: random.Random, length: int, letters: str) -> tuple:
    """length distinct letters in random order: always primitive."""
    return tuple(rng.sample(letters, length))


def random_queue_word(rng: random.Random, n: int, letters: str = LETTERS) -> tuple:
    """n actions, each a write or a read of a uniform letter: short centers."""
    return tuple(
        rng.choice(letters) if rng.random() < 0.5 else "~" + rng.choice(letters)
        for _ in range(n)
    )


def writes(w) -> tuple:
    return tuple(w)


def reads(w) -> tuple:
    return tuple("~" + x for x in w)


def interleave(rng: random.Random, first: tuple, second: tuple) -> tuple:
    """A uniformly random shuffle of two sequences that keeps each in order."""
    out, i, j = [], 0, 0
    while i < len(first) or j < len(second):
        left = len(first) - i
        if rng.randrange(left + len(second) - j) < left:
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return tuple(out)


def periodic_queue_word(rng: random.Random, n: int) -> tuple:
    """About n actions writing r^k and reading r^k for a root r of three
    distinct letters.

    Writes come in up to three blocks of whole roots and every read block
    reads only roots already written, as in a^k ~a^k, so the center is long.
    """
    r = distinct_word(rng, 3, "abc")
    k = max(1, n // (2 * len(r)))
    cuts = sorted(rng.sample(range(1, k), min(2, k - 1))) if k > 1 else []
    blocks = [b - a for a, b in zip([0] + cuts, cuts + [k])]
    out: list = []
    written = done = 0
    for t, b in enumerate(blocks):
        out += writes(r * b)
        written += b
        take = written - done if t == len(blocks) - 1 else rng.randint(0, written - done)
        out += reads(r * take)
        done += take
    return tuple(out)


def rewrite_scramble(rng: random.Random, w: tuple, moves: int) -> tuple:
    """An equivalent copy of w after random uses of the three rewrite rules.

    The rules, used in both directions: a ~b <-> ~b a (a != b),
    a ~b ~c <-> ~b a ~c, and a b ~c <-> a ~c b.
    """
    s = list(w)
    n = len(s)
    rd = [a.startswith("~") for a in s]
    for _ in range(moves):
        if n < 2:
            break
        i = rng.randrange(n - 1)
        a, b = s[i], s[i + 1]
        c_read = i + 2 < n and rd[i + 2]
        opts = []
        if not rd[i] and rd[i + 1] and (b[1:] != a or c_read):
            opts.append("swap")  # a ~b -> ~b a, or a ~b ~c -> ~b a ~c
        if rd[i] and not rd[i + 1] and (a[1:] != b or c_read):
            opts.append("swap")  # the same rules backwards
        if i + 2 < n and not rd[i] and rd[i + 1] != rd[i + 2]:
            opts.append("mid")  # a b ~c <-> a ~c b
        if not opts:
            continue
        if rng.choice(opts) == "swap":
            s[i], s[i + 1] = b, a
            rd[i], rd[i + 1] = rd[i + 1], rd[i]
        else:
            s[i + 1], s[i + 2] = s[i + 2], s[i + 1]
            rd[i + 1], rd[i + 2] = rd[i + 2], rd[i + 1]
    return tuple(s)


def change_one_letter(rng: random.Random, w: tuple, letters: str = LETTERS) -> tuple:
    """A copy of w with one action's letter replaced: pos or neg changes, so
    the copy is inequivalent to w."""
    i = rng.randrange(len(w))
    a = w[i]
    read = a.startswith("~")
    x = a[1:] if read else a
    y = rng.choice([c for c in letters if c != x])
    return w[:i] + (("~" + y) if read else y,) + w[i + 1:]


def random_triple(rng: random.Random, n: int, root: tuple | None = None) -> tuple:
    """A normal-form triple (reads, center, writes) of about n letters.

    Every triple of words is the normal form of some class.  With a root,
    all three parts are powers of it, so products of such triples keep long
    centers.  Without one the parts are random words of fixed lengths with
    a center of two letters.
    """
    if root:
        k = max(3, n // len(root))
        i, j = sorted(rng.sample(range(1, k), 2))
        return (root * i, root * (j - i), root * (k - j))
    c = min(2, n)
    a = (n - c) // 2
    return tuple(tuple(rng.choice(LETTERS) for _ in range(m)) for m in (a, c, n - c - a))


def short_element(rng: random.Random) -> tuple:
    """The triple (x, (), yzw) for four distinct letters: a short center
    that stays short in every power."""
    x, *rest = rng.sample(LETTERS, 4)
    return ((x,), (), tuple(rest))


def queue_and_reader(rng: random.Random, m: int) -> tuple[tuple, tuple]:
    """A queue of m letters and a word that reads its first half in order,
    with random writes mixed in, so the action never fails."""
    q = tuple(rng.choice("abc") for _ in range(m))
    out = []
    for x in q[: m // 2]:
        if rng.random() < 0.5:
            out.append(rng.choice("abc"))
        out.append("~" + x)
    return q, tuple(out)


def valid_on_empty(rng: random.Random, n: int, letters: str = "abc") -> tuple:
    """n actions that never read an empty queue or a wrong letter when
    started on the empty queue."""
    queue: list = []
    out = []
    for _ in range(n):
        if queue and rng.random() < 0.5:
            out.append("~" + queue.pop(0))
        else:
            x = rng.choice(letters)
            queue.append(x)
            out.append(x)
    return tuple(out)


# -- independence alphabets of planted classes ----------------------------------

CLASSES = ("matching", "bipartite", "odd-cycle", "missing-pair", "two-components")


def letter_names(k: int) -> list[str]:
    return list(LETTERS[:k]) if k <= 26 else [f"l{i}" for i in range(k)]


def planted_alphabet(rng: random.Random, k: int, cls: str) -> dict:
    """An alphabet of k letters (k >= 6) whose independence graph has class cls.

    Returns {"letters", "independent", "class", "plant"}.  plant records what
    the construction put in: the matched pairs, the two parts of the
    complete bipartite core, or the vertex sets of the nontrivial components.
    """
    names = letter_names(k)
    rng.shuffle(names)
    edges: list[tuple[str, str]] = []
    plant: dict = {}
    # the sizes of the planted structures are fixed fractions of k, so every
    # seed gets graphs of the same shape and only the letters move
    if cls == "matching":
        m = max(1, k // 3)
        edges = [(names[2 * i], names[2 * i + 1]) for i in range(m)]
    elif cls == "bipartite":
        part1, part2 = names[: max(1, k // 6)], names[max(1, k // 6): max(1, k // 6) + max(2, k // 3)]
        edges = [(x, y) for x in part1 for y in part2]
        plant = {"parts": [sorted(part1), sorted(part2)]}
    elif cls == "odd-cycle":
        length = 2 * (k // 4) + 1
        cyc = names[:length]
        edges = [(cyc[i], cyc[(i + 1) % length]) for i in range(length)]
        extra = names[length: length + (k - length) // 2]
        # pendant letters on every other cycle vertex keep one component
        edges += [(x, cyc[(2 * i) % length]) for i, x in enumerate(extra)]
    elif cls == "missing-pair":
        a = max(2, k // 6)
        part1, part2 = names[:a], names[a: a + max(2, k // 3)]
        # every letter of part1 meets part2[1] and every letter of part2
        # meets part1[1], which keeps the graph connected; of the other cross
        # pairs every second one is left out, (part1[0], part2[0]) among them
        edges = [
            (x, y) for i, x in enumerate(part1) for j, y in enumerate(part2)
            if 1 in (i, j) or (i + j) % 2 == 1
        ]
        plant = {"parts": [sorted(part1), sorted(part2)]}
    elif cls == "two-components":
        s = max(3, k // 4)
        star, other = names[:s], names[s: s + max(2, k // 4)]
        edges = [(star[0], x) for x in star[1:]]
        edges += [(other[i], other[i + 1]) for i in range(len(other) - 1)]
        plant = {"components": [sorted(star), sorted(other)]}
    else:
        raise ValueError(f"unknown class {cls!r}")
    rng.shuffle(edges)
    edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in edges]
    letters = letter_names(k)
    rng.shuffle(letters)
    return {"letters": letters, "independent": [list(e) for e in edges], "class": cls, "plant": plant}


def independence_sets(alph: dict) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {x: set() for x in alph["letters"]}
    for a, b in alph["independent"]:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def random_trace_word(rng: random.Random, letters: list[str], n: int) -> tuple:
    return tuple(rng.choice(letters) for _ in range(n))


def swap_independent(rng: random.Random, w: tuple, adj: dict, moves: int) -> tuple:
    """An equivalent trace word after random adjacent swaps of independent letters."""
    s = list(w)
    for _ in range(moves):
        i = rng.randrange(len(s) - 1)
        if s[i + 1] in adj[s[i]]:
            s[i], s[i + 1] = s[i + 1], s[i]
    return tuple(s)


def swap_dependent(rng: random.Random, w: tuple, adj: dict) -> tuple:
    """An inequivalent trace word: one adjacent pair of distinct dependent
    letters swapped, which changes the projection onto that pair."""
    spots = [i for i in range(len(w) - 1) if w[i] != w[i + 1] and w[i + 1] not in adj[w[i]]]
    i = rng.choice(spots)
    return w[:i] + (w[i + 1], w[i]) + w[i + 2:]


# -- witness families -------------------------------------------------------------
#
# Equation length follows from the exponents the builders solve for, which
# in turn follow from the projection exponents of the factors.  Those are
# fixed per scale m, and the seed draws letters, interleavings and the order
# of the factors, so every seed gets equations of the same size.

def family_p2p3(rng: random.Random, m: int) -> tuple:
    """u writes one letter; v = r^i and w = r^j with {i, j} = {m, m + 1},
    so they commute and are inequivalent.  r writes two letters and reads a
    third; the three letter sets are kept apart."""
    u = writes(distinct_word(rng, 1, "ab"))
    r = interleave(rng, writes(distinct_word(rng, 2, "cd")), reads(distinct_word(rng, 1, "ef")))
    i, j = rng.sample((m, m + 1), 2)
    return (u, r * i, r * j)


def _pq_factors(rng: random.Random, p: tuple, q: tuple, m: int) -> tuple[tuple, list]:
    ab = [(m, m + 1), (m + 1, m), (m + 2, m + 1)]
    rng.shuffle(ab)
    return tuple(interleave(rng, writes(p * a), reads(q * b)) for a, b in ab), ab


def family_nonconjugated(rng: random.Random, m: int) -> tuple:
    """Interleavings of writes of p^a with reads of q^b, for primitive p and q
    of different lengths, which are never conjugate."""
    p = distinct_word(rng, 2, "ab")
    q = distinct_word(rng, 3, "abc")
    facs, _ = _pq_factors(rng, p, q, m)
    return facs + (p, q)


def family_conjugated(rng: random.Random, m: int) -> tuple:
    """Interleavings of writes of p^a with reads of q^b for p = gh, q = hg.

    Returns (u, v, w, g, h, rotation), where rotation is the one the
    witness builder's documented rule picks for these (a, b) exponents.
    """
    p = distinct_word(rng, 2, "abc")
    cut = rng.randrange(len(p))
    g, h = p[:cut], p[cut:]
    facs, ab = _pq_factors(rng, p, h + g, m)
    return facs + (g, h, expected_rotation(ab))


ROTATIONS = (("trivial", (0, 1, 2)), ("vwu", (1, 2, 0)), ("wuv", (2, 0, 1)))


def expected_rotation(ab: list[tuple[int, int]]) -> str:
    """Rotation for write/read exponents (a, b) of u, v, w: none when all are
    balanced, else the first whose leading factor writes more than it reads,
    else the first whose last factor reads more than it writes."""
    if all(a == b for a, b in ab):
        return "trivial"
    for name, idx in ROTATIONS:
        a, b = ab[idx[0]]
        if a > b:
            return name
    for name, idx in ROTATIONS:
        a, b = ab[idx[2]]
        if a < b:
            return name
    raise AssertionError("unreachable: unbalanced exponents have a heavy factor")


def family_p4(rng: random.Random, m: int) -> tuple:
    """t and u write powers of p, v and w read powers of q."""
    p = distinct_word(rng, 2, "ab")
    q = distinct_word(rng, 2, "cd")
    return (writes(p * m), writes(p * (m + 1)), reads(q * m), reads(q * (m + 1)))


FAMILIES = {
    "p2p3": family_p2p3,
    "nonconjugated": family_nonconjugated,
    "conjugated": family_conjugated,
    "p4": family_p4,
}
