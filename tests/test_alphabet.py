"""Independence alphabets: JSON I/O, graph analysis, the embeddability decision."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from quemon import (
    BipartiteRecipe,
    Embeddable,
    IndependenceAlphabet,
    MatchingRecipe,
    MissingPair,
    NotCompleteBipartite,
    NotEmbeddable,
    OddCycle,
    ParseError,
    QueueNormalForm,
    TwoNontrivialComponents,
    decide_embeddable,
    format_normal_form,
    format_word,
    parse_queue_word,
    parse_word,
)
from oracles import (
    connected_components,
    is_complete_bipartite,
    is_p4_free,
    parse_normal_form,
    two_pass_decide_embeddable,
)

K3 = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
P3 = IndependenceAlphabet(("a", "b", "c"), [("a", "b"), ("b", "c")])
P4 = IndependenceAlphabet(
    ("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d")]
)
MATCHING = IndependenceAlphabet(
    ("a", "b", "c", "d", "e"), [("a", "b"), ("c", "d")]
)
K23_ISOLATED = IndependenceAlphabet(
    ("a", "b", "c", "d", "e", "f"),
    [("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e")],
)


# -- construction and JSON ------------------------------------------------------

def test_basic_accessors():
    g = P3
    assert g.letters == ("a", "b", "c")
    assert g.independent("a", "b")
    assert g.independent("b", "a")
    assert not g.independent("a", "c")
    assert not g.independent("a", "a")
    assert g.neighbors("b") == ("a", "c")
    assert g.degree("b") == 2
    assert g.degree("a") == 1


def test_equality_ignores_edge_order_and_orientation():
    g = IndependenceAlphabet(("a", "b", "c"), [("b", "a"), ("c", "b")])
    assert g == P3
    assert hash(g) == hash(P3)
    assert (g == 1) is False and g != ("a", "b", "c")


def test_construction_errors():
    with pytest.raises(ParseError, match="a"):
        IndependenceAlphabet(("a", "a"), [])
    with pytest.raises(ParseError, match="b"):
        IndependenceAlphabet(("a", "b"), [("b", "b")])
    with pytest.raises(ParseError, match="z"):
        IndependenceAlphabet(("a", "b"), [("a", "z")])
    with pytest.raises(ParseError):
        IndependenceAlphabet(("a", "b"), [("a", "b"), ("b", "a")])


def test_letters_that_break_printing_are_rejected():
    for bad in ("x|y", "~a", "a~", "a b", "a\tb", "<a", "a>"):
        with pytest.raises(ParseError, match="whitespace"):
            IndependenceAlphabet(("c", bad), [])
    # printed, the word b a and the letter ab would both read "ab"
    with pytest.raises(ParseError, match="'ab'"):
        IndependenceAlphabet(("a", "b", "ab"), [])
    with pytest.raises(ParseError, match="'aa'"):
        IndependenceAlphabet(("aa", "a"), [])
    # letters with a character that is no letter of their own stay valid
    IndependenceAlphabet(("a", "ab"), [])
    IndependenceAlphabet([f"l{i}" for i in range(12)], [])


# any characters, the reserved ones and whitespace among them
_CHARS = st.sampled_from("abc01~|<> \t")


@given(
    st.lists(st.text(_CHARS, min_size=1, max_size=3), min_size=1, max_size=5, unique=True),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_printed_words_parse_back_over_accepted_alphabets(letters, data):
    bad = [x for x in letters if set(x) & set("~|<> \t")] or [
        x for x in letters if len(x) > 1 and set(x) <= set(letters)
    ]
    try:
        g = IndependenceAlphabet(letters, [])
    except ParseError:
        assert bad
        return
    assert not bad
    word = st.lists(st.sampled_from(g.letters), max_size=6).map(tuple)
    w, u, v = data.draw(word), data.draw(word), data.draw(word)
    assert parse_word(format_word(w), g.letters) == w
    q = tuple("~" + x for x in u) + v
    assert parse_queue_word(format_word(q), g.letters) == q
    nf = QueueNormalForm(w, u, v)
    assert parse_normal_form(format_normal_form(nf), g.letters) == nf


def test_json_round_trip():
    payload = P3.to_json()
    assert set(payload) == {"letters", "independent"}
    assert payload["letters"] == ["a", "b", "c"]
    assert payload["independent"] == [["a", "b"], ["b", "c"]]
    assert IndependenceAlphabet.from_json(payload) == P3
    assert IndependenceAlphabet.loads(json.dumps(payload)) == P3


def test_json_parse_errors():
    with pytest.raises(ParseError):
        IndependenceAlphabet.loads("{not json")
    with pytest.raises(ParseError, match="extras"):
        IndependenceAlphabet.loads(
            '{"letters": ["a"], "independent": [], "extras": 1}'
        )
    with pytest.raises(ParseError):
        IndependenceAlphabet.loads('{"independent": []}')
    with pytest.raises(ParseError, match="b"):
        IndependenceAlphabet.loads(
            '{"letters": ["a"], "independent": [["a", "b"]]}'
        )
    with pytest.raises(ParseError):
        IndependenceAlphabet.loads('[1, 2]')


def test_load_from_file(tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(MATCHING.to_json()))
    assert IndependenceAlphabet.load(path) == MATCHING


def test_hash_is_kept_and_equal_for_alphabets_loaded_twice(tmp_path):
    path = tmp_path / "alphabet.json"
    path.write_text(json.dumps(K23_ISOLATED.to_json()))
    g, h = IndependenceAlphabet.load(path), IndependenceAlphabet.load(path)
    assert g is not h and g == h
    first = hash(g)
    assert first == hash(h) == hash(K23_ISOLATED)
    for x in g.letters:
        g.neighbors(x)
    assert hash(g) == first == hash(h)
    assert hash(IndependenceAlphabet.loads(path.read_text())) == first


def test_a_pickled_alphabet_hashes_like_a_fresh_one_in_another_process():
    # string hashes differ between processes, so a hash cached in one
    # process must not travel with the pickle
    dump = (
        "import pickle, sys; from quemon import IndependenceAlphabet as A; "
        "g = A(('a', 'b', 'c'), [('a', 'b')]); hash(g); "
        "sys.stdout.write(pickle.dumps(g).hex())"
    )
    check = (
        "import pickle, sys; from quemon import IndependenceAlphabet as A; "
        "g = pickle.loads(bytes.fromhex(sys.stdin.read())); "
        "print(hash(g) == hash(A(('a', 'b', 'c'), [('a', 'b')])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    blob = subprocess.run([sys.executable, "-c", dump], capture_output=True, text=True, check=True,
                          env=dict(env, PYTHONHASHSEED="1")).stdout
    out = subprocess.run([sys.executable, "-c", check], input=blob, capture_output=True, text=True,
                         check=True, env=dict(env, PYTHONHASHSEED="2")).stdout
    assert out == "True\n"


# -- graph analysis -------------------------------------------------------------

def test_connected_components():
    assert connected_components(MATCHING) == [("a", "b"), ("c", "d"), ("e",)]
    assert connected_components(K3) == [("a", "b", "c")]
    free = IndependenceAlphabet(("a", "b"), [])
    assert connected_components(free) == [("a",), ("b",)]


def test_is_complete_bipartite_on_path():
    part = is_complete_bipartite(("a", "b", "c"), P3)
    assert part == (("b",), ("a", "c"))


def test_is_complete_bipartite_on_triangle():
    witness = is_complete_bipartite(("a", "b", "c"), K3)
    assert isinstance(witness, OddCycle)
    assert witness.vertices == ("a", "b", "c")


def test_odd_cycle_witness_is_a_cycle():
    g = IndependenceAlphabet(
        ("a", "b", "c", "d", "e"),
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
    )
    witness = is_complete_bipartite(tuple("abcde"), g)
    assert isinstance(witness, OddCycle)
    cyc = witness.vertices
    assert len(cyc) % 2 == 1
    for i, v in enumerate(cyc):
        assert g.independent(v, cyc[(i + 1) % len(cyc)])


def test_missing_pair_witness():
    witness = is_complete_bipartite(("a", "b", "c", "d"), P4)
    assert isinstance(witness, MissingPair)
    u, v = witness.pair
    assert not P4.independent(u, v)


def test_is_p4_free():
    assert is_p4_free(K3) is None
    assert is_p4_free(K23_ISOLATED) is None
    found = is_p4_free(P4)
    assert found is not None
    a, b, c, d = found
    assert P4.independent(a, b) and P4.independent(b, c) and P4.independent(c, d)
    assert not P4.independent(a, c)
    assert not P4.independent(b, d)
    assert not P4.independent(a, d)


# -- the decision ----------------------------------------------------------------

def test_matching_is_embeddable():
    verdict = decide_embeddable(MATCHING)
    assert isinstance(verdict, Embeddable)
    recipe = verdict.recipe
    assert isinstance(recipe, MatchingRecipe)
    pairing = recipe.pairing
    ia, ra = pairing["a"]
    ib, rb = pairing["b"]
    assert ia == ib and {ra, rb} == {"a", "b"}
    assert pairing["e"][1] == "isolated"
    indices = {idx for idx, _ in pairing.values()}
    assert len({idx for letter, (idx, role) in pairing.items() if role != "b"}) == len(indices)


def test_complete_bipartite_is_embeddable():
    verdict = decide_embeddable(K23_ISOLATED)
    assert isinstance(verdict, Embeddable)
    recipe = verdict.recipe
    assert isinstance(recipe, BipartiteRecipe)
    assert recipe.part1 == ("a", "b")
    assert recipe.part2 == ("c", "d", "e")
    assert recipe.isolated == ("f",)


def test_triangle_is_not_embeddable():
    verdict = decide_embeddable(K3)
    assert isinstance(verdict, NotEmbeddable)
    assert isinstance(verdict.reason, NotCompleteBipartite)
    assert isinstance(verdict.reason.witness, OddCycle)


def test_path4_is_not_embeddable():
    verdict = decide_embeddable(P4)
    assert isinstance(verdict, NotEmbeddable)
    assert isinstance(verdict.reason, NotCompleteBipartite)
    assert isinstance(verdict.reason.witness, MissingPair)


def test_two_nontrivial_components_rejected_before_bipartiteness():
    g = IndependenceAlphabet(
        ("a", "b", "c", "d", "e"),
        [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e")],
    )
    verdict = decide_embeddable(g)
    assert isinstance(verdict, NotEmbeddable)
    reason = verdict.reason
    assert isinstance(reason, TwoNontrivialComponents)
    assert reason.edges == (("a", "b"), ("d", "e"))


def test_two_components_report_the_component_with_a_letter_of_degree_2():
    # a-b and c-d alone form a matching, which embeds; e has degree 2
    g = IndependenceAlphabet("abcdefg", [("a", "b"), ("c", "d"), ("e", "f"), ("e", "g")])
    verdict = decide_embeddable(g)
    assert verdict == NotEmbeddable(TwoNontrivialComponents((("a", "b"), ("e", "f"))))


def _check_two_components(g):
    reason = getattr(decide_embeddable(g), "reason", None)
    if not isinstance(reason, TwoNontrivialComponents):
        return False
    (a, b), (c, d) = reason.edges
    assert g.independent(a, b) and g.independent(c, d)
    comps = [comp for comp in connected_components(g) if a in comp or c in comp]
    assert len(comps) == 2 and a in comps[0] and c in comps[1], (g, reason)
    kept = set(comps[0] + comps[1])
    sub = IndependenceAlphabet([x for x in g.letters if x in kept], [e for e in g.edges if e[0] in kept])
    assert isinstance(decide_embeddable(sub), NotEmbeddable), (g, reason)
    return True


def test_two_reported_components_induce_a_non_embeddable_alphabet_up_to_6():
    names = "abcdef"
    seen = 0
    for n in range(7):
        pairs = list(itertools.combinations(names[:n], 2))
        for mask in range(1 << len(pairs)):
            seen += _check_two_components(
                IndependenceAlphabet(names[:n], [p for k, p in enumerate(pairs) if mask >> k & 1])
            )
    assert seen == 1010


# connected shapes as (letters, pairs)
_SHAPES = {"k1": (1, []), "edge": (2, [(0, 1)]), "p3": (3, [(0, 1), (0, 2)]), "k3": (3, [(0, 1), (1, 2), (0, 2)])}


@given(st.lists(st.sampled_from(sorted(_SHAPES)), min_size=2, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_two_reported_components_induce_a_non_embeddable_alphabet_on_unions(shapes, rng):
    # two single edges ahead of a component with a letter of degree 2 need
    # seven letters, so the exhaustive range above cannot reach them
    letters, edges = [], []
    for shape in shapes:
        size, pairs = _SHAPES[shape]
        names = [f"x{len(letters) + i}" for i in range(size)]
        letters += names
        edges += [(names[i], names[j]) for i, j in pairs]
    rng.shuffle(letters)
    _check_two_components(IndependenceAlphabet(letters, edges))


def _assert_same_as_two_pass(g):
    verdict, reference = decide_embeddable(g), two_pass_decide_embeddable(g)
    assert verdict == reference and repr(verdict) == repr(reference), g


def test_decision_equals_the_two_pass_reference_up_to_6_letters_in_both_orders():
    names = "abcdef"
    for n in range(7):
        pairs = list(itertools.combinations(names[:n], 2))
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            _assert_same_as_two_pass(IndependenceAlphabet(names[:n], edges))
            _assert_same_as_two_pass(IndependenceAlphabet(names[:n][::-1], edges))


def test_decision_equals_the_two_pass_reference_on_random_graphs():
    rng = random.Random(9)
    for _ in range(2000):
        letters = [f"x{i}" for i in range(rng.randint(1, 40))]
        rng.shuffle(letters)
        density = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6, 0.9))
        edges = [e for e in itertools.combinations(letters, 2) if rng.random() < density]
        if len(letters) >= 2 and rng.random() < 0.3:
            # a planted complete bipartite core, sometimes missing one pair
            core = rng.sample(letters, rng.randint(2, len(letters)))
            cut = rng.randint(1, len(core) - 1)
            edges = [(a, b) for a in core[:cut] for b in core[cut:]]
            if rng.random() < 0.5:
                edges.pop(rng.randrange(len(edges)))
        _assert_same_as_two_pass(IndependenceAlphabet(letters, edges))


def test_empty_and_free_alphabets_embed():
    assert isinstance(decide_embeddable(IndependenceAlphabet((), [])), Embeddable)
    free = IndependenceAlphabet(("a", "b", "c"), [])
    verdict = decide_embeddable(free)
    assert isinstance(verdict, Embeddable)
    assert isinstance(verdict.recipe, MatchingRecipe)


def test_decision_is_stable_under_relabeling():
    names = ("p", "q", "r", "s")
    for perm in itertools.permutations(("a", "b", "c", "d")):
        relabel = dict(zip(("a", "b", "c", "d"), names))
        for g in (P4, IndependenceAlphabet(("a", "b", "c", "d"), [("a", "b")])):
            h = IndependenceAlphabet(
                tuple(relabel[x] for x in perm if x in g.letters),
                [(relabel[u], relabel[v]) for u, v in g.edges],
            )
            assert isinstance(decide_embeddable(h), type(decide_embeddable(g)))
