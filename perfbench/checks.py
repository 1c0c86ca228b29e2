"""Output checks that do not run the code being timed.

Each checker recomputes what it needs with plain code written here: a deque
simulation of the queue action, projections, a prefix function for
overlaps, and a letter-count form of the projection lemma for traces.  A
checker returns None when the output is right and a short description of
the fault otherwise.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Sequence

from gen import ROTATIONS, independence_sets, is_primitive, reads, writes

BOTTOM = None  # what simulate returns when a read fails


def pos(w: Sequence[str]) -> tuple:
    return tuple(a for a in w if not a.startswith("~"))


def neg(w: Sequence[str]) -> tuple:
    return tuple(a[1:] for a in w if a.startswith("~"))


def simulate(queue: Sequence[str], w: Sequence[str]):
    """The queue contents after w acts on queue, or BOTTOM."""
    q = deque(queue)
    for a in w:
        if a.startswith("~"):
            if not q or q.popleft() != a[1:]:
                return BOTTOM
        else:
            q.append(a)
    return tuple(q)


def nf_word(triple) -> tuple:
    """The action sequence reads(u1) . interleave(u2) . writes(u3)."""
    u1, u2, u3 = triple
    mid = tuple(t for x in u2 for t in (x, "~" + x))
    return reads(u1) + mid + writes(u3)


def probe_queues(w: Sequence[str], cut: int) -> list[tuple]:
    """Queues around the point where w starts reading its own writes.

    Prefixes of neg(w) of length cut-1, cut, cut+1 and the whole of neg(w),
    each also with one letter appended.  A triple whose center is shifted
    by any amount changes the outcome on one of them.
    """
    n = neg(w)
    out = []
    for k in sorted({max(0, cut - 1), cut, min(len(n), cut + 1), len(n)}):
        out.append(n[:k])
        out.append(n[:k] + ("z",))
    return out


def acts_alike(u: Sequence[str], v: Sequence[str], queues: list[tuple]) -> str | None:
    for q in queues:
        a, b = simulate(q, u), simulate(q, v)
        if a != b:
            return f"act differently on a queue of {len(q)} letters"
    return None


def nf_triple(w: Sequence[str]) -> tuple[tuple, tuple, tuple]:
    """The normal-form triple of w, by one pass with a prefix function.

    Writes only extend pos and leave the center alone; a read of x moves the
    center to the longest suffix of center.x that is a prefix of pos, which
    is one step of a Knuth-Morris-Pratt matcher of neg against pos.
    """
    neg: list = []
    pos: list = []
    pi: list[int] = []  # prefix function of pos, extended as pos grows
    c = 0
    for a in w:
        if a.startswith("~"):
            x = a[1:]
            neg.append(x)
            while c and (c == len(pos) or pos[c] != x):
                c = pi[c - 1]
            if c < len(pos) and pos[c] == x:
                c += 1
        else:
            k = pi[-1] if pos else 0
            pos.append(a)
            if len(pos) == 1:
                pi.append(0)
                continue
            while k and pos[k] != a:
                k = pi[k - 1]
            pi.append(k + 1 if pos[k] == a else 0)
    return tuple(neg[: len(neg) - c]), tuple(pos[:c]), tuple(pos[c:])


def check_nf(w: Sequence[str], nf) -> str | None:
    """nf must be the normal-form triple of w: equal to the prefix-function
    fold, and acting like w on queues around its center."""
    reads_, center, writes_ = (tuple(part) for part in nf)
    if reads_ + center != neg(w):
        return "reads . center is not neg(w)"
    if center + writes_ != pos(w):
        return "center . writes is not pos(w)"
    if (reads_, center, writes_) != nf_triple(w):
        return "center differs from the prefix-function fold"
    return acts_alike(w, nf_word(nf), probe_queues(w, len(reads_)))


def check_product(x, y, out) -> str | None:
    return check_nf(nf_word(x) + nf_word(y), out)


def check_power(x, n: int, out, center) -> str | None:
    """out must be the normal form of x^n, with the given center."""
    if tuple(out[1]) != tuple(center):
        return "nf_power center differs from power_mu"
    return check_nf(nf_word(x) * n, out)


def check_action(queue, w, out) -> str | None:
    want = simulate(queue, w)
    got = None if type(out).__name__ == "_BottomType" else tuple(out)
    return None if got == want else "queue contents differ from the deque simulation"


def prefix_overlap(u: Sequence[str], v: Sequence[str]) -> tuple:
    """Longest suffix of u that is a prefix of v, by the prefix function of
    v + separator + u."""
    s = list(v) + [None] + list(u)
    pi = [0] * len(s)
    for i in range(1, len(s)):
        k = pi[i - 1]
        while k and s[i] != s[k]:
            k = pi[k - 1]
        if s[i] == s[k]:
            k += 1
        pi[i] = k
    return tuple(v[: pi[-1]]) if s else ()


def check_overlap(u, v, out) -> str | None:
    return None if tuple(out) == prefix_overlap(u, v) else "not the longest suffix-prefix overlap"


def check_primitive_root(w, out) -> str | None:
    root, e = out
    if tuple(root) * e != tuple(w):
        return "root^e is not w"
    return None if is_primitive(root) else "root is not primitive"


# -- traces ------------------------------------------------------------------------

def _signature(w: Sequence[str], dep: dict[str, list[str]]) -> list:
    """For each occurrence of each letter x, how many of each letter
    dependent on x precede it.  Two words are trace equivalent exactly when
    these agree, by the projection lemma on dependent pairs."""
    count: Counter = Counter()
    sig = []
    for x in w:
        sig.append((x, count[x], tuple(count[y] for y in dep[x])))
        count[x] += 1
    return sorted(sig)


def same_trace(u: Sequence[str], v: Sequence[str], indep: dict[str, set]) -> bool:
    if Counter(u) != Counter(v):
        return False
    present = sorted(set(u))
    dep = {x: [y for y in present if y != x and y not in indep[x]] for x in present}
    return _signature(u, dep) == _signature(v, dep)


def is_lex_normal(w: Sequence[str], indep: dict[str, set], rank: dict[str, int]) -> bool:
    """No factor b u a with a before b in rank order and a independent of b
    and of every letter of u (the lexicographic normal form condition)."""
    for j, a in enumerate(w):
        i = j - 1
        while i >= 0 and w[i] in indep[a]:
            if rank[w[i]] > rank[a]:
                return False
            i -= 1
    return True


def check_lexnf(w, out, indep, rank) -> str | None:
    if not same_trace(w, out, indep):
        return "a dependent-pair projection changed"
    return None if is_lex_normal(out, indep, rank) else "not lexicographically least"


def count_traces(letters: list[str], indep: dict[str, set], n: int) -> tuple[int, int]:
    """(words, classes) over all words of length at most n; a class is
    counted once, at its lexicographically least member."""
    rank = {x: i for i, x in enumerate(letters)}
    classes = 0
    level = [()]
    for length in range(n + 1):
        # prefixes of a normal form are normal forms, so only they are extended
        level = [w for w in level if is_lex_normal(w, indep, rank)]
        classes += len(level)
        if length < n:
            level = [w + (x,) for w in level for x in letters]
    return sum(len(letters) ** i for i in range(n + 1)), classes


def _components(plant_sets: list[list[str]], x: str) -> int:
    return next(i for i, c in enumerate(plant_sets) if x in c)


def check_verdict(alph: dict, verdict) -> str | None:
    """The decision must match the class the generator planted, and its
    recipe or certificate must hold on the graph."""
    cls, plant = alph["class"], alph["plant"]
    indep = independence_sets(alph)
    kind = type(verdict).__name__
    want = "Embeddable" if cls in ("matching", "bipartite") else "NotEmbeddable"
    if kind != want:
        return f"{cls} alphabet classified {kind}"
    if cls == "matching":
        pairing = verdict.recipe.pairing
        if set(pairing) != set(alph["letters"]):
            return "pairing does not cover the letters"
        groups: dict[int, set] = {}
        for x, (i, role) in pairing.items():
            groups.setdefault(i, set()).add(x)
            partner = indep[x]
            if (role == "isolated") != (not partner):
                return f"role of {x} disagrees with its partners"
        for g in groups.values():
            if len(g) == 2:
                a, b = sorted(g)
                if b not in indep[a]:
                    return "paired letters are not independent"
            if len(g) > 2:
                return "index shared by more than two letters"
        return None
    if cls == "bipartite":
        r = verdict.recipe
        got = sorted([sorted(r.part1), sorted(r.part2)])
        if got != sorted(plant["parts"]):
            return "bipartition differs from the planted parts"
        core = set(r.part1) | set(r.part2)
        return None if set(r.isolated) == set(alph["letters"]) - core else "isolated letters wrong"
    reason = verdict.reason
    if cls == "two-components":
        if type(reason).__name__ != "TwoNontrivialComponents":
            return f"reason {type(reason).__name__}, want two components"
        comps = plant["components"]
        (a, b), (c, d) = reason.edges
        if b not in indep[a] or d not in indep[c]:
            return "certificate edge is not an independent pair"
        return None if _components(comps, a) != _components(comps, c) else "edges in one component"
    witness = getattr(reason, "witness", None)
    if cls == "odd-cycle":
        if type(witness).__name__ != "OddCycle":
            return "no odd cycle certificate"
        v = witness.vertices
        if len(v) % 2 == 0 or len(set(v)) != len(v):
            return "cycle is not odd or repeats a vertex"
        ok = all(v[(i + 1) % len(v)] in indep[v[i]] for i in range(len(v)))
        return None if ok else "cycle step is not an independent pair"
    if type(witness).__name__ != "MissingPair":
        return "no missing pair certificate"
    a, b = witness.pair
    p1, p2 = plant["parts"]
    across = (a in p1 and b in p2) or (a in p2 and b in p1)
    return None if across and b not in indep[a] else "pair is not a missing cross pair"


# -- witnesses -----------------------------------------------------------------------

def witness_sides(kind: str, words: tuple, report) -> tuple[tuple, tuple]:
    """The two sides the report's exponents prescribe, built here."""
    x, y = report.x, report.y
    if kind == "p2p3":
        u, v, w = words
        return (u * x[0] + v * x[1] + u + w * x[2], u * y[0] + w * y[2] + u + v * y[1])
    if kind == "p4":
        t, u, v, w = words
        xt, xu1, xu2, xv, xw = x
        return (u * xu1 + v * xv + w + t * xt + w * xw + u * xu2,
                u * xu1 + w + u * xu2 + w * xw + t * xt + v * xv)
    return (sum((f * e for f, e in zip(words, x)), ()), sum((f * e for f, e in zip(words, y)), ()))


def check_witness(kind: str, words: tuple, report, rotation: str | None) -> str | None:
    """kind is the builder; words the factors it was given (for conjugated,
    u, v, w); rotation the expected one for conjugated inputs."""
    if report.verified is not True:
        return "report is not marked verified"
    want_kind = f"conjugated:{rotation}" if kind == "conjugated" else kind
    if report.kind != want_kind:
        return f"kind {report.kind}, want {want_kind}"
    if kind == "conjugated":
        idx = dict(ROTATIONS)[rotation]
        words = tuple(words[i] for i in idx)
    lhs, rhs = witness_sides(kind, words, report)
    if tuple(report.lhs) != lhs or tuple(report.rhs) != rhs:
        return "sides do not match the reported exponents"
    if kind in ("nonconjugated", "conjugated") and tuple(report.x) == tuple(report.y):
        return "trivial equation: x == y"
    if pos(lhs) != pos(rhs) or neg(lhs) != neg(rhs):
        return "sides have different projections"
    n = neg(lhs)
    cuts = {0, len(n) // 3, len(n) // 2, len(n)}
    return acts_alike(lhs, rhs, [n[:k] + e for k in sorted(cuts) for e in ((), ("z",))])
