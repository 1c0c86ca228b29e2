"""End-to-end acceptance checks, one per guaranteed behavior.

Every test is exhaustive over its stated range (no sampling, no tolerance)
and prints a single PASS line with the scale of what was verified; run
pytest with -s (or check the -v test lines) to see them.
"""

import itertools
import time

from quemon import (
    ConjugacyDecomposition,
    Embeddable,
    IndependenceAlphabet,
    MissingPair,
    NotCompleteBipartite,
    NotEmbeddable,
    OddCycle,
    QueueNormalForm,
    TraceWord,
    TwoNontrivialComponents,
    conjugated_witness,
    decide_embeddable,
    is_primitive,
    letter_images,
    lex_normal_form,
    multiply,
    nf_power,
    nonconjugated_witness,
    normal_form,
    NF_IDENTITY,
    overlap,
    p2p3_witness,
    p4_witness,
    power_mu,
    verify_embedding_bounded,
)
from quemon.witness import _conjugacy_profile, _mixed_exponent

from batteries import (
    CONJUGATED_BATTERY,
    NONCONJUGATED_BATTERY,
    P2P3_BATTERY,
    P4_BATTERY,
)
from oracles import (
    bfs_class_oracle,
    bipartite_embedding,
    generalized_shift,
    nf_to_queue_word,
    overlap_gq,
    rewrite_nf_oracle,
    sandwich_form,
)

ACTIONS = ("a", "b", "~a", "~b")
AB = ("a", "b")


def queue_words_up_to(n):
    for k in range(n + 1):
        yield from itertools.product(ACTIONS, repeat=k)


def plain_words_up_to(n, alphabet=AB):
    for k in range(n + 1):
        yield from itertools.product(alphabet, repeat=k)


def all_decompositions(max_p):
    for p in plain_words_up_to(max_p):
        if p and is_primitive(p):
            for i in range(len(p)):
                yield ConjugacyDecomposition(p[:i], p[i:])


def test_01_normal_form_agrees_with_rewriting_and_class_oracles():
    """Every queue word up to length 6 over {a, b}: same normal form by
    algebra and by exhaustive rewriting, and the rewrite-step equivalence
    classes coincide with normal-form equality."""
    start = time.monotonic()
    groups: dict[QueueNormalForm, list] = {}
    words = 0
    for w in queue_words_up_to(6):
        words += 1
        nf = normal_form(w)
        assert nf_to_queue_word(nf) == rewrite_nf_oracle(w), w
        groups.setdefault(nf, []).append(w)
    for nf, members in groups.items():
        assert bfs_class_oracle(members[0]) == set(members), nf
    elapsed = time.monotonic() - start
    assert words == sum(4 ** k for k in range(7))
    assert elapsed < 60
    print(
        f"PASS: normal forms match both oracles on {words} queue words "
        f"({len(groups)} classes) in {elapsed:.1f}s"
    )


def test_02_multiplication_matches_concatenation():
    """multiply(nf(u), nf(v)) equals nf(u v) for every pair with
    |u|, |v| <= 5 over {a, b}."""
    start = time.monotonic()
    single = {a: normal_form((a,)) for a in ACTIONS}
    nf_by_word = {(): NF_IDENTITY}
    frontier = [()]
    for _ in range(5):
        nxt = []
        for w in frontier:
            for a in ACTIONS:
                w2 = w + (a,)
                nf_by_word[w2] = multiply(nf_by_word[w], single[a])
                nxt.append(w2)
        frontier = nxt

    pairs = 0
    for u, nf_u in nf_by_word.items():
        # nf(u v) extended one action at a time down the tree of all v
        stack = [((), nf_u)]
        while stack:
            v, nf_uv = stack.pop()
            assert multiply(nf_u, nf_by_word[v]) == nf_uv, (u, v)
            pairs += 1
            if len(v) < 5:
                for a in ACTIONS:
                    stack.append((v + (a,), multiply(nf_uv, single[a])))
    elapsed = time.monotonic() - start
    assert pairs == len(nf_by_word) ** 2
    assert elapsed < 120
    print(f"PASS: closed-form product equals concatenation on {pairs} pairs in {elapsed:.1f}s")


def test_03_power_center_matches_iterated_multiplication():
    """power_mu agrees with the center of the iterated product for every
    word up to length 4 and every exponent up to 5."""
    checks = 0
    for w in queue_words_up_to(4):
        nf = normal_form(w)
        acc = nf
        for n in range(1, 6):
            assert power_mu(nf, n) == acc.center, (w, n)
            assert acc == nf_power(nf, n), (w, n)
            acc = multiply(acc, nf)
            checks += 1
    print(f"PASS: power centers match iterated products on {checks} (word, exponent) pairs")


def test_04_block_shift_identities_hold():
    """Both block-shift identities hold for every u, v, w up to length 3
    over {a, b} meeting their length preconditions."""
    read_checks = write_checks = 0
    pool = list(plain_words_up_to(3))
    for u, v, w in itertools.product(pool, repeat=3):
        if len(u) <= len(w):
            lhs, rhs, holds = generalized_shift(u, v, w, "read-block")
            assert holds, ("read-block", u, v, w, lhs, rhs)
            read_checks += 1
        if len(u) >= len(w):
            lhs, rhs, holds = generalized_shift(u, v, w, "write-block")
            assert holds, ("write-block", u, v, w, lhs, rhs)
            write_checks += 1
    print(
        f"PASS: block-shift identities hold on {read_checks} read-block and "
        f"{write_checks} write-block triples"
    )


def test_05_sandwich_form_and_power_overlap_match_brute_force():
    """For every conjugacy decomposition with |p| <= 4 and exponents up to 4:
    sandwich_form agrees with direct suffix/prefix search, and overlap_gq
    agrees with the generic overlap of the assembled words."""
    sandwich_checks = overlap_checks = 0
    for dec in all_decompositions(4):
        p, q = dec.p, dec.q
        seen = set()
        for reps in range(1, 5):
            candidates = [
                (q * reps)[cut:] for cut in range(len(q) * reps - len(q) + 1)
            ] + [
                (p * reps)[:ln] for ln in range(len(q), len(p) * reps + 1)
            ]
            for y in candidates:
                if y in seen:
                    continue
                seen.add(y)
                is_suffix = any(
                    y == (q * j)[len(q) * j - len(y):] for j in range(1, 6)
                )
                is_prefix = any(y == (p * j)[: len(y)] for j in range(1, 6))
                expected = len(y) // len(q) if (is_suffix and is_prefix) else None
                assert sandwich_form(dec, y) == expected, (dec, y)
                if expected is not None:
                    assert y == dec.g + q * expected == p * expected + dec.g
                sandwich_checks += 1
        for cut_p in range(1, len(p) + 1):
            p_suffix = p[cut_p:]
            for cut_q in range(len(q)):
                q_prefix = q[:cut_q]
                for i in range(5):
                    for j in range(5):
                        got = overlap_gq(dec, p_suffix, q_prefix, i, j)
                        want = overlap(p_suffix + dec.g + q * i, p * j + dec.g + q_prefix)
                        assert got == want, (dec, p_suffix, q_prefix, i, j)
                        overlap_checks += 1
    print(
        f"PASS: sandwich form matches search on {sandwich_checks} words and "
        f"power overlap matches generic overlap on {overlap_checks} cases"
    )


def test_06_mixed_center_exponent_matches_computed_centers():
    """_mixed_exponent predicts the center of u^xu v^xv w^xw exactly, over
    all conjugate-root elements with |p| <= 2, projection exponents in
    {1, 2}, and power exponents in {2, 3}."""
    checks = 0
    for dec in all_decompositions(2):
        p, q = dec.p, dec.q
        elements = []
        for a_e, b_e in itertools.product((1, 2), repeat=2):
            neg, pos = q * b_e, p * a_e
            for ell in range(min(len(neg), len(pos)) + 1):
                center = neg[len(neg) - ell:] if ell else ()
                if center != pos[:ell]:
                    continue
                elements.append(
                    QueueNormalForm(neg[: len(neg) - ell], center, pos[ell:])
                )
        powers = {(i, x): nf_power(e, x) for i, e in enumerate(elements) for x in (2, 3)}
        profiles = [_conjugacy_profile(e, dec) for e in elements]
        for iu, iv, iw in itertools.product(range(len(elements)), repeat=3):
            for x in itertools.product((2, 3), repeat=3):
                prod = multiply(
                    multiply(powers[(iu, x[0])], powers[(iv, x[1])]),
                    powers[(iw, x[2])],
                )
                exp = _mixed_exponent((profiles[iu], profiles[iv], profiles[iw]), x)
                assert prod.center == dec.g + q * exp, (dec, iu, iv, iw, x)
                checks += 1
    print(f"PASS: mixed center exponent matches computed centers on {checks} products")


def _brute_embeddable(n: int, pairs, mask: int) -> bool:
    deg = [0] * n
    adj = set()
    for k, (i, j) in enumerate(pairs):
        if mask >> k & 1:
            deg[i] += 1
            deg[j] += 1
            adj.add((i, j))
    if all(d <= 1 for d in deg):
        return True
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in adj:
        parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for v in range(n):
        if deg[v]:
            comps.setdefault(find(v), []).append(v)
    if len(comps) != 1:
        return False
    core = next(iter(comps.values()))
    m = len(core)
    for smask in range(1, 1 << m):
        left = [core[t] for t in range(m) if smask >> t & 1]
        right = [core[t] for t in range(m) if not smask >> t & 1]
        if not right:
            continue
        want = {(min(i, j), max(i, j)) for i in left for j in right}
        if want == adj:
            return True
    return False


def _letter_components(g: IndependenceAlphabet) -> dict:
    comp = {}
    for start in g.letters:
        if start in comp:
            continue
        frontier, members = [start], {start}
        while frontier:
            x = frontier.pop()
            for y in g.neighbors(x):
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        for x in members:
            comp[x] = start
    return comp


def _check_verdict_witness(g: IndependenceAlphabet, verdict) -> None:
    if isinstance(verdict, Embeddable):
        recipe = verdict.recipe
        if hasattr(recipe, "pairing"):
            pairing = recipe.pairing
            assert set(pairing) == set(g.letters)
            for x, y in g.edges:
                ix, rx = pairing[x]
                iy, ry = pairing[y]
                assert ix == iy and {rx, ry} == {"a", "b"}, (x, y)
            for x in g.letters:
                if g.degree(x) == 0:
                    assert pairing[x][1] == "isolated", x
        else:
            # runs the full partition/independence validation
            bipartite_embedding(recipe, TraceWord(g, ()))
        return
    reason = verdict.reason
    if isinstance(reason, TwoNontrivialComponents):
        (e1, e2) = reason.edges
        comp = _letter_components(g)
        assert g.independent(*e1) and g.independent(*e2)
        assert comp[e1[0]] != comp[e2[0]]
        return
    assert isinstance(reason, NotCompleteBipartite)
    witness = reason.witness
    if isinstance(witness, OddCycle):
        cyc = witness.vertices
        assert len(cyc) % 2 == 1 and len(cyc) >= 3
        for i, v in enumerate(cyc):
            assert g.independent(v, cyc[(i + 1) % len(cyc)]), cyc
    else:
        assert isinstance(witness, MissingPair)
        x, y = witness.pair
        comp = _letter_components(g)
        assert not g.independent(x, y)
        assert comp[x] == comp[y]


def test_07_decision_agrees_with_brute_force_on_all_small_graphs():
    """decide_embeddable matches an independent brute-force decision on
    every independence alphabet with at most 6 letters, with structurally
    valid recipes and refusal witnesses; the four named shapes land where
    they should."""
    start = time.monotonic()
    names = ("a", "b", "c", "d", "e", "f")
    count = 0
    for n in range(7):
        letters = names[:n]
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                (letters[i], letters[j])
                for k, (i, j) in enumerate(pairs)
                if mask >> k & 1
            ]
            g = IndependenceAlphabet(letters, edges)
            verdict = decide_embeddable(g)
            assert isinstance(verdict, Embeddable) == _brute_embeddable(
                n, pairs, mask
            ), (letters, edges)
            _check_verdict_witness(g, verdict)
            count += 1
    assert count == sum(2 ** (n * (n - 1) // 2) for n in range(7))

    matching = IndependenceAlphabet(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    assert isinstance(decide_embeddable(matching), Embeddable)
    k3 = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
    assert isinstance(decide_embeddable(k3), NotEmbeddable)
    p4 = IndependenceAlphabet(
        ("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d")]
    )
    assert isinstance(decide_embeddable(p4), NotEmbeddable)
    k23_iso = IndependenceAlphabet(
        ("a", "b", "c", "d", "e", "f"),
        [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e")],
    )
    assert isinstance(decide_embeddable(k23_iso), Embeddable)

    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"PASS: decision matches brute force on {count} graphs "
        f"(witnesses validated) in {elapsed:.1f}s"
    )


def test_08_letter_images_separate_classes_up_to_length_6():
    """The constructed letter images are injective on trace classes and
    invariant within them, for all words up to length 6, on both reference
    alphabets."""
    two_pairs = IndependenceAlphabet(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    report = verify_embedding_bounded(two_pairs, letter_images(two_pairs), 6)
    assert report.ok and report.counterexample is None
    assert report.words_checked == sum(4 ** k for k in range(7))
    pairs_classes = report.classes

    k22_iso = IndependenceAlphabet(
        ("a", "b", "c", "d", "e"),
        [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
    )
    report2 = verify_embedding_bounded(k22_iso, letter_images(k22_iso), 6)
    assert report2.ok and report2.counterexample is None
    assert report2.words_checked == sum(5 ** k for k in range(7))

    print(
        "PASS: letter images separate classes exactly on "
        f"{report.words_checked} + {report2.words_checked} words "
        f"({pairs_classes} + {report2.classes} classes), zero counterexamples"
    )


def test_09_witness_batteries_all_verify():
    """Every battery entry yields a verified, nontrivial equation; the
    conjugated battery exercises all three rotations."""
    assert len(P2P3_BATTERY) >= 12
    for u, v, w in P2P3_BATTERY:
        r = p2p3_witness(u, v, w)
        assert r.verified and r.kind == "p2p3"
        assert r.x[1] + r.x[2] != 0

    assert len(NONCONJUGATED_BATTERY) >= 12
    for u, v, w, p, q in NONCONJUGATED_BATTERY:
        r = nonconjugated_witness(u, v, w, p, q)
        assert r.verified and r.kind == "nonconjugated"
        assert r.x != r.y

    assert len(CONJUGATED_BATTERY) >= 12
    rotations = set()
    for u, v, w, dec, expected in CONJUGATED_BATTERY:
        r = conjugated_witness(u, v, w, dec)
        assert r.verified and r.kind == f"conjugated:{expected}"
        assert r.x != r.y
        rotations.add(expected)
    assert rotations == {"trivial", "vwu", "wuv"}

    assert len(P4_BATTERY) >= 12
    for t, u, v, w in P4_BATTERY:
        r = p4_witness(t, u, v, w)
        assert r.verified and r.kind == "p4"
        assert r.x[0] != 0 and r.x[4] != 0

    total = (
        len(P2P3_BATTERY) + len(NONCONJUGATED_BATTERY)
        + len(CONJUGATED_BATTERY) + len(P4_BATTERY)
    )
    print(
        f"PASS: {total} witness equations verified nontrivially across "
        "4 kinds and 3 rotations"
    )


def test_10_trace_monoids_are_cancellative_at_small_scale():
    """No cancellativity counterexample: over every independence relation
    on 3 letters, u v w equivalent to u v' w forces v equivalent to v',
    for all choices with |u v w| <= 6."""
    letters = ("a", "b", "c")
    words_by_len = {
        length: list(itertools.product(letters, repeat=length))
        for length in range(7)
    }
    all_pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    triples = 0
    relations = 0
    for r in range(4):
        for edges in itertools.combinations(all_pairs, r):
            relations += 1
            g = IndependenceAlphabet(letters, edges)
            nf = {}
            for length in range(7):
                for w in words_by_len[length]:
                    nf[w] = lex_normal_form(TraceWord(g, w)).word
            seen: dict = {}
            for total in range(7):
                for i in range(total + 1):
                    for j in range(total - i + 1):
                        k = total - i - j
                        for u in words_by_len[i]:
                            for v in words_by_len[j]:
                                for w in words_by_len[k]:
                                    key = (u, w, nf[u + v + w])
                                    val = nf[v]
                                    assert seen.setdefault(key, val) == val, (
                                        edges, u, v, w,
                                    )
                                    triples += 1
    print(
        f"PASS: cancellativity holds on {triples} (u, v, w) triples "
        f"across {relations} independence relations"
    )
