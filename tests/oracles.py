"""Slow reference implementations of the queue, word and trace kernels,
and the brute-force oracles the tests check the library against.

These are the straightforward quadratic versions that the linear kernels in
quemon replaced: the prefix function and the overlap by scanning every
length, the prefix function by one step of its loop per entry, without
periodic runs, the normal form as a fold of the
product over single actions, the power as an n-fold product, its center
by one overlap of the full n-fold sides (through the library's overlap),
the action by slicing the queue, the primitive root by trying every
divisor of the length, the conjugacy split by trying every
rotation, the trace normal form by greedy rescans, trace equivalence by
projections onto
every dependent pair, the dependence stacks by one projection per letter
and by one push per position and dependent letter, with the normal form
that pops them through a heap and the equivalence that compares them,
the offset normal form that holds the letters that may come first in a
heap and the others in buckets keyed by a target, the bounded embedding
check over every word with its class key of occurrence offsets,
the separating-queue search of `quemon eq` with every level of candidates
held in a list, and the two embeddings built word by word, the bipartite
one behind a recipe check that tries every pair, with the encoding of
their indexed letters into {a, b}, and the witness exponents by Gaussian
elimination over the rationals and by enlarging one step at a time up to a
cap.  They share no code with
the kernels they check: the product here is rebuilt on the scanning
overlap, and the greedy and projection trace oracles ask the alphabet
only which pairs are independent.  The one exception is the heap-and-bucket
normal form, which reads the library's occurrence offsets, so it checks
the emission alone.  The brute-force oracles come last: the
normal form by exhaustive rewriting, and whole equivalence classes by
breadth-first closure under the rewrite rules or under swaps of independent letters.  Next to them, stated through the library's normal
form, are mu (the center alone) and the block-shift identities.

Between the exponent oracles and the brute-force ones sits reference code
that nothing in the library calls, kept here as it was written there: the
write and read action sequences of a plain word, the written and the read
letters of a queue word (project_pos, project_neg), the index-scanning
tokenizer and the queue-word printer that `parse_queue_word` and
`format_word` replaced, the parser of printed normal forms, the sandwich
form and the closed-form overlap for conjugate roots p = gh, q = hg (the
latter through the library's overlap), clique projections, the decoder
of binary-encoded indices, is_p4_free, the brute-force search for an
induced path on four letters, and the two-pass embeddability decision:
the components by a depth-first search over every letter, a second
breadth-first search of the core, and the odd cycle from ancestor chains.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Sequence

from quemon import (
    BOTTOM,
    DEFAULT_ALPHABET,
    AlphabetMismatchError,
    NF_IDENTITY,
    BipartiteRecipe,
    CapExceededError,
    Embeddable,
    EmbeddingReport,
    InternalError,
    MatchingRecipe,
    MissingPair,
    NotCompleteBipartite,
    NotEmbeddable,
    OddCycle,
    ParseError,
    PreconditionError,
    ProductWord,
    QueueNormalForm,
    RecipeMismatchError,
    TraceWord,
    TwoNontrivialComponents,
    equivalent,
    normal_form,
    overlap,
    parse_word,
)
from quemon.trace import _offsets

if TYPE_CHECKING:
    from quemon.words import Letter


def scan_prefix_function(w):
    """Entry i is the longest proper border of w[:i+1], trying every length."""
    return [max(k for k in range(i + 1) if w[:k] == w[i + 1 - k:i + 1]) for i in range(len(w))]


def stepwise_border_table(w):
    """The prefix function of w by the Knuth-Morris-Pratt loop, one step per
    entry, each entry read back from the list."""
    border = []
    for i, y in enumerate(w):
        j = border[-1] if i else 0
        while j and w[j] != y:
            j = border[j - 1]
        border.append(j + 1 if i and w[j] == y else 0)
    return border


def scan_overlap(u, v):
    """Longest suffix of u that is a prefix of v, trying the longest first."""
    for k in range(min(len(u), len(v)), 0, -1):
        if u[len(u) - k:] == v[:k]:
            return v[:k]
    return ()


def scan_multiply(x, y):
    """Product of two normal forms, with the center found by scan_overlap."""
    center = scan_overlap(x.center + y.reads + y.center, x.center + x.writes + y.center)
    neg = x.reads + x.center + y.reads + y.center
    pos = x.center + x.writes + y.center + y.writes
    return QueueNormalForm(neg[: len(neg) - len(center)], center, pos[len(center):])


def fold_normal_form(w):
    """Normal form of an action sequence, folding scan_multiply over its actions."""
    nf = NF_IDENTITY
    for a in w:
        if a.startswith("~"):
            nf = scan_multiply(nf, QueueNormalForm((a[1:],), (), ()))
        else:
            nf = scan_multiply(nf, QueueNormalForm((), (), (a,)))
    return nf


def iterated_nf_power(x, n):
    """n-th power of a normal form as an n-fold product."""
    out = NF_IDENTITY
    for _ in range(n):
        out = scan_multiply(out, x)
    return out


def overlap_power_mu(x, n):
    """Center of the n-th power, n >= 1, by matching all n |x| letters:
    overlap(center . neg^(n-1), pos^(n-1) . center)."""
    return overlap(x.center + x.neg() * (n - 1), x.pos() * (n - 1) + x.center)


def slicing_action(state, w):
    """Apply w to the queue state, slicing the head off at every read."""
    for a in w:
        if state is BOTTOM:
            return BOTTOM
        if a.startswith("~"):
            if state and state[0] == a[1:]:
                state = state[1:]
            else:
                state = BOTTOM
        else:
            state = state + (a,)
    return state


def divisor_primitive_root(w):
    """(root, e) with root primitive and root^e == w, trying every divisor d
    of |w| in increasing order by building w[:d]^(|w|/d)."""
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return w[:d], n // d
    return w, 1


def scan_conjugacy_split(p, q):
    """(g, h) with p = gh and q = hg and g shortest, or None, trying every rotation."""
    if len(p) != len(q):
        return None
    for i in range(len(p)):
        if p[i:] + p[:i] == q:
            return p[:i], p[i:]
    return None


def list_distinguishing_queue(u, v, max_len, alphabet=DEFAULT_ALPHABET):
    """Shortest queue (by length, then letter order) on which u and v act
    differently, or None up to max_len, building each level as a list.

    The queue's letters are those of u and v plus the least letter of the
    alphabet that neither uses.
    """
    letters = {a.lstrip("~") for a in u} | {a.lstrip("~") for a in v}
    extra = min((x for x in alphabet if x not in letters), default=None)
    letters = sorted(letters if extra is None else letters | {extra})
    level = [()]
    for _ in range(max_len + 1):
        for q in level:
            if slicing_action(q, u) != slicing_action(q, v):
                return q
        level = [q + (a,) for q in level for a in letters]
    return None


def dependence_stacks(u):
    """The dependence stacks of u as one byte string, by projection: for
    each letter y in rank order, the word projected onto the letters
    dependent on y, written 1 where y stands and 0 for any other letter,
    with 2 between stacks.  Equal for two words over one alphabet exactly
    when the words are trace equivalent."""
    g = u.alphabet
    return b"\x02".join(
        bytes([x == y for x in u.word if x == y or not g.independent(x, y)])
        for y in g.letters
    )


def binary_encode(w, letters=("a", "b"), index=None):
    """Encode indexed letters into a two-letter alphabet via x_i -> a^i b.

    Indices are taken from the mapping when given, otherwise from trailing
    decimal digits of each letter name.
    """
    zero, one = letters
    out = []
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


def eta_matching(recipe, u):
    """Embedding of a matching alphabet into indexed letters c_i / d_i.

    A letter with index i and role 'a' (or no partner) maps to (c_i, d_i);
    its role-'b' partner maps to (c_i, d_i d_i).
    """
    pairing = recipe.pairing
    for x in u.alphabet.letters:
        if x not in pairing:
            raise RecipeMismatchError(f"recipe says nothing about letter {x!r}")
    first, second = [], []
    for x in u.word:
        i, role = pairing[x]
        first.append(f"c{i}")
        second.append(f"d{i}")
        if role == "b":
            second.append(f"d{i}")
    return ProductWord(tuple(first), tuple(second))


def bipartite_embedding(recipe, u):
    """Pair of clique projections for a complete bipartite core: part1
    plus the isolated letters, and part2 plus the isolated letters, after
    checking the recipe pair by pair."""
    check_bipartite_recipe(recipe, u.alphabet)
    first = clique_projection(u, recipe.part1 + recipe.isolated)
    second = clique_projection(u, recipe.part2 + recipe.isolated)
    return ProductWord(first, second)


def check_bipartite_recipe(recipe, g):
    """Raise RecipeMismatchError unless the recipe partitions g into two
    completely independent parts and isolated letters, trying every pair
    across the parts and inside each group."""
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


def greedy_lex_normal_form(g, word, order=None):
    """Least member of the trace class of word, by greedy rescans.

    A letter can come first exactly when its first occurrence is preceded
    only by letters independent of it; among those candidates the least
    (in order, default declaration order) is emitted and its occurrence
    deleted.
    """
    rank = {x: i for i, x in enumerate(g.letters if order is None else order)}
    remaining = list(word)
    out = []
    while remaining:
        best_pos = None
        best_rank = None
        seen = set()
        for i, x in enumerate(remaining):
            if x in seen:
                continue
            seen.add(x)
            if all(g.independent(y, x) for y in remaining[:i]):
                if best_rank is None or rank[x] < best_rank:
                    best_pos, best_rank = i, rank[x]
        out.append(remaining.pop(best_pos))
    return tuple(out)


def projection_equivalent(g, u, v):
    """Trace equivalence by the projection lemma: equal projections onto
    every pair of dependent letters, a letter paired with itself included."""
    for a, b in itertools.combinations_with_replacement(g.letters, 2):
        if a == b or not g.independent(a, b):
            keep = {a, b}
            if [x for x in u if x in keep] != [x for x in v if x in keep]:
                return False
    return True


def _dependent_ranks(u):
    """For each letter x of u, the ranks of the letters dependent on x, x
    included, in increasing order."""
    g = u.alphabet
    return {x: [j for j, y in enumerate(g.letters) if not g.independent(x, y)] for x in set(u.word)}


def _stacks(u):
    """Dependence stacks of u, indexed by rank, with the first position on top.

    An entry is True where the stack's own letter stands and False for a
    marker.
    """
    g = u.alphabet
    stacks: list[list[bool]] = [[] for _ in g.letters]
    dep = _dependent_ranks(u)
    for x in reversed(u.word):
        i = g.rank(x)
        for j in dep[x]:
            stacks[j].append(j == i)
    return stacks


def stack_lex_normal_form(u, order=None):
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
    dep = _dependent_ranks(u)
    heap = [(key[i], i) for i, s in enumerate(stacks) if s and s[-1]]
    heapify(heap)
    out: list[Letter] = []
    while heap:
        x = g.letters[heappop(heap)[1]]
        out.append(x)
        # no letter of D(x) other than x can be on the heap: it would have
        # to precede x's first occurrence, and then x could not come first
        for j in dep[x]:
            s = stacks[j]
            s.pop()
            if s and s[-1]:
                heappush(heap, (key[j], j))
    return TraceWord(g, tuple(out))


def stack_trace_equivalent(u, v):
    """Whether u and v denote the same trace: equal dependence stacks."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot compare over different alphabets")
    if len(u.word) != len(v.word):
        return False
    return _stacks(u) == _stacks(v)


def bucket_lex_normal_form(u: TraceWord, order: Sequence[Letter] | None = None) -> TraceWord:
    """Least representative of u's class in the length-lexicographic order.

    The order on letters defaults to declaration order.  The letters that
    may come first sit in a heap keyed by the order, the others in buckets
    keyed by a target.  O(n * (d + 1) + n log |letters|), where d is
    the largest independence degree among the letters of u, plus
    O(|letters|) to check a given order, which must name every letter once.
    """
    g = u.alphabet
    offs = _offsets(g, u.word)
    if order is None:
        letters = sorted(offs, key=g.rank)
    else:
        seen: set[Letter] = set()
        for x in order:
            if x in seen or x not in g:
                why = "repeats" if x in seen else "names unknown"
                raise PreconditionError(f"order {why} letter {x!r}")
            seen.add(x)
        if len(seen) < len(g.letters):
            x = next(x for x in g.letters if x not in seen)
            raise PreconditionError(f"order is missing letter {x!r}")
        letters = [x for x in order if x in offs]
    # from here on a letter is its position in `letters`
    pos = {x: k for k, x in enumerate(letters)}
    occ = [offs[x][::-1] for x in letters]
    independent = [[pos[z] for z in g.neighbors(x) if z in pos] for x in letters]
    target = [o[-1] for o in occ]
    waiting: defaultdict[int, list[int]] = defaultdict(list)
    for k, t in enumerate(target):
        waiting[t].append(k)
    heap = waiting.pop(0, [])
    out: list[Letter] = []
    done = 0
    while heap:
        k = heappop(heap)
        out.append(letters[k])
        done += 1
        for z in independent[k]:
            target[z] += 1
        o = occ[k]
        last = o.pop()
        if o:
            t = target[k] = done - 1 + o[-1] - last
            waiting[t].append(k)
        for z in waiting.pop(done, ()):
            if target[z] == done:
                heappush(heap, z)
            else:
                waiting[target[z]].append(z)
    return TraceWord(g, out)


def _words_with_keys(g, images, n):
    """Every word of length at most n, by length and then letter order,
    with its class key and its image, each extended from its parent's.

    The class key holds one int per letter, whose bit o is set when the
    letter has an occurrence at offset o, the canonical form of
    quemon.trace.  Appending x to a word of length m sets bit m - sum over
    z in I(x) of #z in x's int, and #z is the popcount of z's int.
    """
    steps = [
        (x, g.rank(x), tuple(map(g.rank, g.neighbors(x))), images[x].first, images[x].second)
        for x in g.letters
    ]
    level = [((), (0,) * len(g.letters), ((), ()))]
    for length in range(n + 1):
        yield from level
        if length < n:
            nxt = []
            for word, key, (first, second) in level:
                for x, i, independent, x_first, x_second in steps:
                    offset = length
                    for j in independent:
                        offset -= key[j].bit_count()
                    offsets = list(key)
                    offsets[i] |= 1 << offset
                    nxt.append((word + (x,), tuple(offsets), (first + x_first, second + x_second)))
            level = nxt


def keyed_verify_embedding_bounded(g, images, n):
    """verify_embedding_bounded over every word: two words must share an
    image exactly when they have equal class keys (see _words_with_keys).
    The first offending pair, in enumeration order, is reported."""
    for x in g.letters:
        if x not in images:
            raise RecipeMismatchError(f"no image for letter {x!r}")
    by_image = {}
    by_class = {}
    count = 0
    for count, (word, key_class, key_img) in enumerate(_words_with_keys(g, images, n), 1):
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
    return EmbeddingReport(True, count, len(by_class), None, "")


def fraction_kernel_vector(rows, ncols):
    """One nonzero integer kernel vector of the given row system, or None.

    Deterministic: reduced row echelon form, first free variable set to one,
    denominators cleared, content divided out, first nonzero entry positive.
    """
    mat = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    sol = [Fraction(0)] * ncols
    sol[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        sol[c] = -mat[i][free[0]]
    denom = math.lcm(*(x.denominator for x in sol))
    ints = [int(x * denom) for x in sol]
    content = math.gcd(*ints)
    ints = [x // content for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_p2p3_exponents(a_v, a_w, b_v, b_w):
    """(x_v, x_w, y_v, y_w) of the p2p3 equation, the non-proportional case
    from a kernel vector of its 3x4 system, checked for coherent signs."""
    if a_v == 0:
        return 1, 0, 1, 0
    if a_w == 0:
        return 0, 1, 0, 1
    if a_v * b_w == a_w * b_v:
        return a_w + b_w, a_v + b_v, a_w + b_w, a_v + b_v
    z = fraction_kernel_vector(
        [(a_v, 0, 0, -a_w), (0, a_w, -a_v, 0), (b_v, b_w, -b_v, -b_w)], 4
    )
    assert z is not None
    assert len({e > 0 for e in z if e}) == 1, "exponent solution is not sign coherent"
    return tuple(abs(e) for e in z)


def enlarge_until_long(a, b, x0, y0, len_p, len_q, cap=1_000_000):
    """Least n < cap such that, with n added to every exponent, both sides
    of the nonconjugated equation write and read |p| + |q| letters or more,
    trying n = 0, 1, 2, ... in turn."""
    need = len_p + len_q
    for n in range(cap):
        if all(
            need <= b[2] * (vec[2] + n) * len_q
            and need <= (a[0] * (vec[0] + n) + a[1] * (vec[1] + n)) * len_p
            for vec in (x0, y0)
        ):
            return n
    raise CapExceededError("enlargement bound reached")


def raise_until_dominant(profiles, x0, y0, coord, cap=1_000_000):
    """Least k < cap such that, with coordinate coord of x0 and y0 raised by
    k, row coord of the conjugated center formula is a least row on both
    sides, trying k = 0, 1, 2, ... in turn."""
    (a_u, b_u, c_u), (a_v, b_v, c_v), (a_w, b_w, c_w) = profiles
    m_u, m_v, m_w = min(a_u, b_u), min(a_v, b_v), min(a_w, b_w)

    def rows(x_u, x_v, x_w):
        return (
            m_u * x_u + b_v * x_v + b_w * x_w + c_u - m_u,
            a_u * x_u + m_v * x_v + b_w * x_w + c_v - m_v,
            a_u * x_u + a_v * x_v + m_w * x_w + c_w - m_w,
        )

    for k in range(cap):
        raised = [rows(*(e + k if i == coord else e for i, e in enumerate(vec)))
                  for vec in (x0, y0)]
        if all(r[coord] == min(r) for r in raised):
            return k
    raise CapExceededError("row-domination bound reached")


def write_actions(w):
    """The action sequence writing the letters of w in order."""
    return tuple(w)


def read_actions(w):
    """The action sequence reading the letters of w in order."""
    # tuple([...]) allocates the tuple at its final size; tuple() over a
    # generator grows and then shrinks it, which in hot loops strands
    # memory in the interpreter's per-size tuple free lists.
    return tuple(["~" + x for x in w])


def project_pos(w):
    """The written letters of w, in order: pos of its normal form."""
    return tuple([a for a in w if a[0] != "~"])


def project_neg(w):
    """The read letters of w, in order: neg of its normal form."""
    return tuple([a[1:] for a in w if a[0] == "~"])


def tokenize(text, letters):
    """The actions of text over letters, scanning each chunk by index: a
    ~ must be followed by a letter, which it reads."""
    letter_set = set(letters)
    tokens = []
    for chunk in text.split():
        body = chunk[1:] if chunk.startswith("~") else chunk
        if body in letter_set:
            tokens.append(chunk)
            continue
        i = 0
        while i < len(chunk):
            if chunk[i] == "~":
                if i + 1 >= len(chunk):
                    raise ParseError(f"dangling ~ in {chunk!r}")
                x = chunk[i + 1]
                if x not in letter_set:
                    raise ParseError(f"unknown letter {x!r} in {chunk!r}")
                tokens.append("~" + x)
                i += 2
            else:
                x = chunk[i]
                if x not in letter_set:
                    raise ParseError(f"unknown letter {x!r} in {chunk!r}")
                tokens.append(x)
                i += 1
    return tuple(tokens)


def format_queue_word(w):
    """w joined without spaces when the letter of each action, read or
    written, is one character, and with spaces otherwise."""
    if all(len(a[1:] if a[0] == "~" else a) == 1 for a in w):
        return "".join(w)
    return " ".join(w)


def parse_normal_form(text, alphabet=DEFAULT_ALPHABET):
    if not (text.startswith("<") and text.endswith(">")):
        raise ParseError(f"normal form must look like <u1|u2|u3>, got {text!r}")
    parts = text[1:-1].split("|")
    if len(parts) != 3:
        raise ParseError(f"normal form must have three components, got {text!r}")
    u1, u2, u3 = (parse_word(p, alphabet) for p in parts)
    return QueueNormalForm(u1, u2, u3)


def nf_to_queue_word(nf):
    """The queue word of a normal form: its reads, then x ~x for each letter
    x of its center, then its writes; the fixpoint of rewrite_nf_oracle."""
    out = ["~" + x for x in nf.reads]
    for x in nf.center:
        out.append(x)
        out.append("~" + x)
    out.extend(nf.writes)
    return tuple(out)


def sandwich_form(dec, y):
    """Exponent k with y = g q^k = p^k g, for y caught between powers of q and p.

    For p = gh and q = hg, a word y with |y| >= |q| that is a suffix of some
    q^i and a prefix of some p^j necessarily has the sandwich shape above
    with k = |y| // |q|.  Returns that k, or None when y is not such a word.
    Raises PreconditionError when |y| < |q|.
    """
    p, q = dec.p, dec.q
    if len(y) < len(q):
        raise PreconditionError(f"need |y| >= |q| = {len(q)}, got {len(y)}")
    reps = -(-len(y) // len(q))
    if y != (q * reps)[len(q) * reps - len(y):]:
        return None
    if y != (p * reps)[: len(y)]:
        return None
    k = len(y) // len(q)
    if y != dec.g + q * k or y != p * k + dec.g:
        raise InternalError("sandwich identity failed for a qualifying word")
    return k


def overlap_gq(dec, p_suffix, q_prefix, i, j):
    """overlap(p_suffix + g + q^i, p^j + g + q_prefix) in closed form.

    p_suffix must be a proper suffix of p and q_prefix a proper prefix of q;
    i and j are nonnegative repetition counts.  For min(i, j) >= 1 the
    overlap is exactly g q^min(i, j): it contains g q^min as a common
    suffix/prefix, and being at least |q| long it has the sandwich shape,
    whose length is pinned by |p_suffix| < |p|.  For min(i, j) = 0 that
    argument breaks down (the overlap can be longer than g but shorter
    than |q|, e.g. p = q = aba, p_suffix = ba against p g: overlap a with
    g empty), so the overlap is computed directly.
    """
    p, q = dec.p, dec.q
    if i < 0 or j < 0:
        raise PreconditionError("exponents must be nonnegative")
    if len(p_suffix) >= len(p) or p[len(p) - len(p_suffix):] != p_suffix:
        raise PreconditionError(f"{p_suffix!r} is not a proper suffix of {p!r}")
    if len(q_prefix) >= len(q) or q[: len(q_prefix)] != q_prefix:
        raise PreconditionError(f"{q_prefix!r} is not a proper prefix of {q!r}")
    if min(i, j) == 0:
        return overlap(p_suffix + dec.g + q * i, p * j + dec.g + q_prefix)
    return dec.g + q * min(i, j)


def clique_projection(u, letters):
    """Erase every letter outside the given set.

    When the kept letters are pairwise dependent the projection is a word
    whose value is invariant across u's class.
    """
    keep = set(letters)
    return tuple(x for x in u.word if x in keep)


def binary_decode(w, letters=("a", "b")):
    """Recover the index sequence from a binary-encoded word."""
    zero, one = letters
    out = []
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


def is_p4_free(g):
    """None when g has no induced path on four vertices, else such a path.

    The witness (a, b, c, d) carries edges ab, bc, cd and no other edges
    among the four vertices.
    """
    from itertools import combinations, permutations

    for quad in combinations(g.letters, 4):
        for a, b, c, d in permutations(quad):
            if (
                g.independent(a, b)
                and g.independent(b, c)
                and g.independent(c, d)
                and not g.independent(a, c)
                and not g.independent(a, d)
                and not g.independent(b, d)
            ):
                return (a, b, c, d)
    return None


def connected_components(g):
    """Components as tuples in declaration order, listed by their least letter."""
    index = {}
    out = []
    for start in g.letters:
        if start in index:
            continue
        index[start] = len(out)
        out.append([])
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y not in index:
                    index[y] = index[start]
                    frontier.append(y)
    for x in g.letters:
        out[index[x]].append(x)
    return [tuple(c) for c in out]


def is_complete_bipartite(component, g):
    """Check one connected component for being complete bipartite.

    Returns the two parts (smaller first, ties broken by the part holding
    the least letter) or a witness: an OddCycle when the component is not
    bipartite, otherwise a MissingPair that should be independent but is not.
    The component must be a connected component of g containing an edge.
    """
    comp = tuple(component)
    root = comp[0]
    color = {root: 0}
    parent = {root: None}
    queue = [root]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in g.neighbors(x):
            if y not in color:
                color[y] = 1 - color[x]
                parent[y] = x
                queue.append(y)
            elif color[y] == color[x]:
                return OddCycle(_cycle_through(x, y, parent))

    part0 = tuple(x for x in comp if color[x] == 0)
    part1 = tuple(x for x in comp if color[x] == 1)
    # in a bipartite component a letter is independent of all of part1
    # exactly when its degree is |part1|
    for a in part0:
        if g.degree(a) != len(part1):
            b = next(b for b in part1 if not g.independent(a, b))
            return MissingPair((a, b))
    if len(part1) < len(part0):
        return part1, part0
    return part0, part1


def _cycle_through(x, y, parent):
    """Odd cycle from two equally colored endpoints of an edge in a BFS tree."""

    def ancestors(v):
        chain = [v]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        return chain

    up_x, up_y = ancestors(x), ancestors(y)
    common = set(up_x) & set(up_y)
    trim_x = []
    for v in up_x:
        trim_x.append(v)
        if v in common:
            break
    meet = trim_x[-1]
    trim_y = []
    for v in up_y:
        if v == meet:
            break
        trim_y.append(v)
    cycle = tuple(trim_x + list(reversed(trim_y)))
    # canonical orientation: least vertex first, then the smaller neighbor
    k = min(range(len(cycle)), key=lambda i: cycle[i])
    cycle = cycle[k:] + cycle[:k]
    if len(cycle) > 1 and cycle[-1] < cycle[1]:
        cycle = (cycle[0],) + tuple(reversed(cycle[1:]))
    return cycle


def two_pass_decide_embeddable(g):
    """decide_embeddable by the components first, then a second search of
    the one nontrivial component for being complete bipartite."""
    if all(g.degree(x) <= 1 for x in g.letters):
        pairing = {}
        index = 0
        for x in g.letters:
            if x in pairing:
                continue
            nbrs = g.neighbors(x)
            if nbrs:
                pairing[x] = (index, "a")
                pairing[nbrs[0]] = (index, "b")
            else:
                pairing[x] = (index, "isolated")
            index += 1
        return Embeddable(MatchingRecipe(pairing))

    nontrivial = [c for c in connected_components(g) if len(c) > 1]
    if len(nontrivial) > 1:
        # the least letter x of degree >= 2 and its least partner, which
        # lie on a P3 or a triangle, and the least edge of the first other
        # component: its least letter and that letter's least partner
        x = next(x for x in g.letters if g.degree(x) >= 2)
        home = next(c for c in nontrivial if x in c)
        other = nontrivial[1] if home is nontrivial[0] else nontrivial[0]
        edges = ((x, g.neighbors(x)[0]), (other[0], g.neighbors(other[0])[0]))
        if other is nontrivial[0]:
            edges = edges[::-1]
        return NotEmbeddable(TwoNontrivialComponents(edges))

    core = nontrivial[0]
    verdict = is_complete_bipartite(core, g)
    if isinstance(verdict, (OddCycle, MissingPair)):
        return NotEmbeddable(NotCompleteBipartite(verdict))
    part1, part2 = verdict
    covered = set(part1) | set(part2)
    isolated = tuple(x for x in g.letters if x not in covered)
    return Embeddable(BipartiteRecipe(part1, part2, isolated))


def mu(w):
    """Center of the normal form of w."""
    return normal_form(w).center


def rewrite_nf_oracle(w):
    """Normal form by exhaustive rewriting with the three directed rules.

    Applies the leftmost applicable rule until a fixpoint is reached.  Each
    application moves one read a position to the left, so at most |w|^2 + |w|
    steps can occur; exceeding that bound raises CapExceededError.
    """
    word = list(w)
    n = len(word)
    cap = n * n + n
    steps = 0
    changed = True
    while changed:
        changed = False
        for i in range(n):
            a = word[i]
            if a.startswith("~") or i + 1 >= n:
                continue
            b = word[i + 1]
            if b.startswith("~"):
                if b[1:] != a:
                    word[i], word[i + 1] = b, a  # a ~b -> ~b a
                elif i + 2 < n and word[i + 2].startswith("~"):
                    word[i], word[i + 1] = b, a  # a ~b ~c -> ~b a ~c
                else:
                    continue
            else:
                if i + 2 < n and word[i + 2].startswith("~"):
                    word[i + 1], word[i + 2] = word[i + 2], b  # a b ~c -> a ~c b
                else:
                    continue
            changed = True
            steps += 1
            if steps > cap:
                raise CapExceededError("rewriting exceeded its step bound")
            break
    return tuple(word)


def bfs_class_oracle(w, cap=1_000_000):
    """The full equivalence class of w, by closure under the undirected rules."""
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for u in frontier:
            for v in _neighbors(u):
                if v not in seen:
                    seen.add(v)
                    if len(seen) > cap:
                        raise CapExceededError("equivalence class exceeds cap")
                    nxt.append(v)
        frontier = nxt
    return seen


def _neighbors(u):
    n = len(u)
    for i in range(n - 1):
        a, b = u[i], u[i + 1]
        a_read, b_read = a.startswith("~"), b.startswith("~")
        if not a_read and b_read:
            if b[1:] != a:
                yield u[:i] + (b, a) + u[i + 2:]  # a ~b <-> ~b a
            if i + 2 < n and u[i + 2].startswith("~"):
                yield u[:i] + (b, a) + u[i + 2:]  # a ~b ~c <-> ~b a ~c
        if a_read and not b_read:
            if i + 2 < n and u[i + 2].startswith("~"):
                yield u[:i] + (b, a) + u[i + 2:]  # ~b a ~c <-> a ~b ~c
            if a[1:] != b:
                yield u[:i] + (b, a) + u[i + 2:]  # ~b a <-> a ~b
        if not a_read and not b_read and i + 2 < n and u[i + 2].startswith("~"):
            yield u[:i] + (a, u[i + 2], b) + u[i + 3:]  # a b ~c <-> a ~c b
        if not a_read and b_read and i + 2 < n and not u[i + 2].startswith("~"):
            yield u[:i] + (a, u[i + 2], b) + u[i + 3:]  # a ~c b <-> a b ~c


def generalized_shift(u, v, w, side):
    """Shift identities between blocks of writes and reads.

    side='read-block' requires |u| <= |w| and relates
        writes(u) reads(v) reads(w)  ==  reads(v) writes(u) reads(w);
    side='write-block' requires |u| >= |w| and relates
        writes(u) writes(v) reads(w)  ==  writes(u) reads(w) writes(v).

    Returns (lhs, rhs, holds) with holds decided by normal forms.
    """
    if side == "read-block":
        if len(u) > len(w):
            raise PreconditionError("read-block shift needs |u| <= |w|")
        lhs = write_actions(u) + read_actions(v) + read_actions(w)
        rhs = read_actions(v) + write_actions(u) + read_actions(w)
    elif side == "write-block":
        if len(u) < len(w):
            raise PreconditionError("write-block shift needs |u| >= |w|")
        lhs = write_actions(u) + write_actions(v) + read_actions(w)
        rhs = write_actions(u) + read_actions(w) + write_actions(v)
    else:
        raise PreconditionError(f"unknown side {side!r}")
    return lhs, rhs, equivalent(lhs, rhs)


def bfs_trace_class(u, cap=1_000_000):
    """All words of u's class, by closure under adjacent independent swaps."""
    g = u.alphabet
    seen = {u.word}
    frontier = [u.word]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(len(w) - 1):
                if g.independent(w[i], w[i + 1]):
                    s = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                    if s not in seen:
                        seen.add(s)
                        if len(seen) > cap:
                            raise CapExceededError("trace class exceeds cap")
                        nxt.append(s)
        frontier = nxt
    return seen
