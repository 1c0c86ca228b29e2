"""Command-line interface: output formats, JSON payloads, exit codes, the
fast commands on worst-case inputs, and a fuzz test of the exit contract."""

import argparse
import collections
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import quemon
from quemon import (
    IndependenceAlphabet,
    MatchingRecipe,
    TraceWord,
    action,
    decide_embeddable,
    embed_to_two_free,
    format_normal_form,
    format_state,
    format_word,
    lex_normal_form,
    multiply,
    normal_form,
    parse_queue_word,
    trace_equivalent,
)
from quemon import cli
from quemon.cli import _WITNESS_KINDS, _build_parser, _distinguishing_queue, main

from batteries import CONJUGATED_BATTERY, NONCONJUGATED_BATTERY, P2P3_BATTERY, P4_BATTERY
from oracles import list_distinguishing_queue, parse_normal_form, project_neg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def alphabet_file(tmp_path, name, letters, independent):
    path = tmp_path / name
    path.write_text(json.dumps({"letters": letters, "independent": independent}))
    return str(path)


@pytest.fixture
def k3(tmp_path):
    return alphabet_file(tmp_path, "k3.json", ["a", "b", "c"],
                         [["a", "b"], ["b", "c"], ["a", "c"]])


@pytest.fixture
def p3(tmp_path):
    return alphabet_file(tmp_path, "p3.json", ["a", "b", "c"],
                         [["a", "b"], ["b", "c"]])


# -- queue commands -----------------------------------------------------------

def test_nf(capsys):
    assert run(capsys, "nf", "a~b") == (0, "<b||a>\n", "")
    assert run(capsys, "nf", "") == (0, "<||>\n", "")


def test_nf_json(capsys):
    code, out, _ = run(capsys, "nf", "--json", "a~b")
    assert code == 0
    assert json.loads(out) == {
        "reads": "b", "center": "", "writes": "a", "text": "<b||a>",
    }


def test_printed_normal_form_reparses(capsys):
    for word in ("", "a~b", "ab~a~b", "~a~ab"):
        _, out, _ = run(capsys, "nf", word)
        reparsed = parse_normal_form(out.strip())
        _, out2, _ = run(capsys, "nf", word)
        assert out == out2
        assert parse_normal_form(out2.strip()) == reparsed


def test_mul(capsys):
    assert run(capsys, "mul", "~ba", "~ba") == (0, "<bb||aa>\n", "")
    assert run(capsys, "mul", "a~a", "b~b") == (0, "<|ab|>\n", "")


def test_eq_equivalent(capsys):
    assert run(capsys, "eq", "a~b~c", "~ba~c") == (0, "EQUIVALENT\n", "")


def test_eq_distinguished(capsys):
    code, out, err = run(capsys, "eq", "a~a", "~aa")
    assert (code, err) == (0, "")
    assert out == "DISTINGUISHED queue='' lhs= rhs=BOTTOM\n"


def test_eq_distinguished_json(capsys):
    code, out, _ = run(capsys, "eq", "--json", "a~a", "~aa")
    assert code == 0
    assert json.loads(out) == {
        "equivalent": False, "queue": "", "lhs": "", "rhs": "BOTTOM",
    }


def test_eq_search_bound(capsys):
    code, out, _ = run(capsys, "eq", "--max-len", "0", "~aa", "~aaa")
    assert code == 0
    assert out == "DISTINGUISHED: no separating queue up to length 0\n"
    code, out, _ = run(capsys, "eq", "--json", "--max-len", "0", "~aa", "~aaa")
    assert json.loads(out) == {"equivalent": False, "queue": None}
    code, out, _ = run(capsys, "eq", "~aa", "~aaa")
    assert out == "DISTINGUISHED queue='a' lhs=a rhs=aa\n"


@pytest.mark.parametrize("words", [("~aa", "~aaa"), ("a", "a")], ids=["distinct", "equal"])
def test_eq_negative_search_bound_is_a_parse_error(capsys, words):
    code, out, err = run(capsys, "eq", "--max-len", "-3", *words)
    assert (code, out) == (2, "")
    assert err == "parse error: --max-len must be nonnegative, got -3\n"


def test_eq_separates_a_unary_pair_with_an_unused_letter(capsys, tmp_path):
    # a~a reads back what it wrote, so only a letter it does not use tells
    # it from the empty word
    assert run(capsys, "eq", "--max-len", "20", "a~a", "") == (
        0, "DISTINGUISHED queue='b' lhs=BOTTOM rhs=b\n", "")
    path = alphabet_file(tmp_path, "za.json", ["z", "a"], [])
    assert run(capsys, "eq", "--alphabet", path, "a~a", "") == (
        0, "DISTINGUISHED queue='z' lhs=BOTTOM rhs=z\n", "")
    path = alphabet_file(tmp_path, "a.json", ["a"], [])
    assert run(capsys, "eq", "--alphabet", path, "--max-len", "3", "a~a", "") == (
        0, "DISTINGUISHED: no separating queue up to length 3\n", "")


def test_distinguishing_queue_matches_list_search_up_to_4_actions():
    words = [w for k in range(5) for w in itertools.product(("a", "b", "~a", "~b"), repeat=k)]
    for u, v in itertools.combinations_with_replacement(words, 2):  # the search is symmetric
        for max_len in range(4):
            assert (_distinguishing_queue((normal_form(u), normal_form(v)), max_len)
                    == list_distinguishing_queue(u, v, max_len)), (u, v, max_len)


def test_distinguishing_queue_stops_at_m_plus_1_with_the_same_answer():
    # M is the larger number of reads; the list search goes on to M + 3
    def check(u, v, alphabet):
        max_len = max(len(project_neg(u)), len(project_neg(v))) + 3
        assert (_distinguishing_queue((normal_form(u), normal_form(v)), max_len, alphabet)
                == list_distinguishing_queue(u, v, max_len, alphabet)), (u, v)

    words = [w for k in range(4) for w in itertools.product(("a", "b", "~a", "~b"), repeat=k)]
    for u, v in itertools.combinations_with_replacement(words, 2):
        check(u, v, quemon.DEFAULT_ALPHABET)
    # over the one letter a, every queue commutes with every word, so the
    # search may find nothing up to any bound
    words = [w for k in range(6) for w in itertools.product(("a", "~a"), repeat=k)]
    for u, v in itertools.combinations_with_replacement(words, 2):
        check(u, v, ("a",))


def test_distinguishing_queue_compares_each_candidate_once(monkeypatch):
    # the read words (a)^3000 and (a)^6000 share their first 3,000 letters,
    # which the merge yields once per word: lengths 0 to 3,000 each give one
    # distinct prefix, and 3,001 gives a, b and the unused c after a^3000
    calls = []
    image = cli._image

    def counted(nf, neg, q):
        calls.append(q)
        return image(nf, neg, q)

    monkeypatch.setattr(cli, "_image", counted)
    u, v = parse_queue_word("a~a" * 3000 + "b"), parse_queue_word("a~a" * 6000 + "b")
    q = _distinguishing_queue((normal_form(u), normal_form(v)), 10**9)
    assert q == ("a",) * 3000 + ("b",)
    assert len(calls) == 2 * 3_003
    assert len(set(calls)) == 3_003


def test_distinguishing_queue_tries_few_queues_per_length(monkeypatch):
    # at most two distinct queues per length up to M, the larger number of
    # reads, and 2 |letters| at M + 1; _image runs once per queue and word
    calls = []
    image = cli._image

    def counted(nf, neg, q):
        calls.append(q)
        return image(nf, neg, q)

    monkeypatch.setattr(cli, "_image", counted)

    def check(u, v, alphabet):
        nfs = normal_form(u), normal_form(v)
        if nfs[0] == nfs[1]:
            return None
        calls.clear()
        q = _distinguishing_queue(nfs, 10**9, alphabet)
        m = max(len(nf.neg()) for nf in nfs)
        used = {x for nf in nfs for x in nf.neg() + nf.pos()}
        letters = len(used) + bool(set(alphabet) - used)  # and the unused one
        per_length = collections.Counter(map(len, set(calls)))
        assert len(calls) == 2 * sum(per_length.values()), (u, v)
        for n, count in per_length.items():
            assert n <= m + 1 and count <= (2 if n <= m else 2 * letters), (u, v, n)
        return q

    words = [w for k in range(4) for w in itertools.product(("a", "b", "~a", "~b"), repeat=k)]
    for u, v in itertools.product(words, repeat=2):
        check(u, v, quemon.DEFAULT_ALPHABET)
    # over the one letter a some inequivalent pairs are never separated, so
    # the search runs on to M + 1
    words = [w for k in range(6) for w in itertools.product(("a", "~a"), repeat=k)]
    assert None in {check(u, v, ("a",)) for u, v in itertools.product(words, repeat=2)}


def test_eq_over_one_letter_ends_at_a_huge_bound(capsys, tmp_path):
    path = alphabet_file(tmp_path, "a.json", ["a"], [])
    start = time.perf_counter()
    result = run(capsys, "eq", "--alphabet", path, "--max-len", "1000000000", "a~a", "")
    assert time.perf_counter() - start < 2
    assert result == (0, "DISTINGUISHED: no separating queue up to length 1000000000\n", "")


def test_distinguishing_queue_memory_stays_bounded():
    # no queue of length <= 5 separates these, so the search runs to its
    # bound, trying only prefixes of the two read words; a search that held
    # a level of all 19,608 queues over a-f and the unused g as a list took
    # megabytes
    u = parse_queue_word("~a~b~c~d~e~f")
    v = parse_queue_word("~a~b~c~d~e~a")
    tracemalloc.start()
    try:
        assert _distinguishing_queue((normal_form(u), normal_form(v)), 5) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_eq_finds_a_long_separating_queue(capsys):
    code, out, _ = run(capsys, "eq", "~a~b~c~d~e~f~g~h", "~a~b~c~d~e~f~g~a")
    assert (code, out) == (0, "DISTINGUISHED queue='abcdefga' lhs=BOTTOM rhs=\n")
    # trying every queue over a-i and the unused j up to length 8 took 80 s
    for bound, out in (([], "DISTINGUISHED: no separating queue up to length 8\n"),
                       (["--max-len", "9"], "DISTINGUISHED queue='abcdefgha' lhs=BOTTOM rhs=\n")):
        start = time.perf_counter()
        result = run(capsys, "eq", *bound, "~a~b~c~d~e~f~g~h~i", "~a~b~c~d~e~f~g~h~a")
        assert time.perf_counter() - start < 2, bound
        assert result == (0, out, ""), bound


def test_action(capsys):
    assert run(capsys, "action", "ab", "~a") == (0, "b\n", "")
    assert run(capsys, "action", "b", "~a") == (0, "BOTTOM\n", "")
    assert run(capsys, "action", "", "ab~a") == (0, "b\n", "")
    code, out, _ = run(capsys, "action", "--json", "b", "~a")
    assert json.loads(out) == {"state": "BOTTOM"}


def test_alphabet_flag_with_multicharacter_letters(capsys, tmp_path):
    path = alphabet_file(tmp_path, "wide.json", ["aa", "b"], [])
    code, out, _ = run(capsys, "nf", "--alphabet", path, "aa ~aa")
    assert (code, out) == (0, "<|aa|>\n")


# -- alphabet commands ----------------------------------------------------------

def test_decide_matching(capsys, tmp_path):
    path = alphabet_file(tmp_path, "m.json", ["a", "b", "c", "d", "e"],
                         [["a", "b"], ["c", "d"]])
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert out == (
        "EMBEDDABLE (matching): a->0/a b->0/b c->1/a d->1/b e->2/isolated\n"
    )


def test_decide_bipartite(capsys, p3):
    code, out, _ = run(capsys, "decide", p3)
    assert code == 0
    assert out == "EMBEDDABLE (complete bipartite): C1={b} C2={a,c} isolated={}\n"


def test_decide_odd_cycle(capsys, k3):
    code, out, _ = run(capsys, "decide", k3)
    assert code == 0
    assert out == "NOT EMBEDDABLE: odd cycle a b c\n"
    code, out, _ = run(capsys, "decide", "--json", k3)
    assert json.loads(out) == {
        "embeddable": False,
        "reason": {"kind": "odd-cycle", "vertices": ["a", "b", "c"]},
    }


def test_decide_odd_cycle_orientation_follows_string_order_not_rank(capsys, tmp_path):
    # declared in reverse, rank order would start at c and go toward b
    path = alphabet_file(tmp_path, "k3r.json", ["c", "b", "a"],
                         [["c", "b"], ["c", "a"], ["b", "a"]])
    assert run(capsys, "decide", path) == (0, "NOT EMBEDDABLE: odd cycle a b c\n", "")
    code, out, _ = run(capsys, "decide", "--json", path)
    assert json.loads(out) == {
        "embeddable": False,
        "reason": {"kind": "odd-cycle", "vertices": ["a", "b", "c"]},
    }
    path = alphabet_file(tmp_path, "c5r.json", ["e", "d", "c", "b", "a"],
                         [["a", "c"], ["c", "e"], ["e", "b"], ["b", "d"], ["d", "a"]])
    assert run(capsys, "decide", path) == (0, "NOT EMBEDDABLE: odd cycle a c e b d\n", "")


def test_decide_missing_pair(capsys, tmp_path):
    path = alphabet_file(tmp_path, "p4.json", ["a", "b", "c", "d"],
                         [["a", "b"], ["b", "c"], ["c", "d"]])
    code, out, _ = run(capsys, "decide", path)
    assert (code, out) == (0, "NOT EMBEDDABLE: missing pair a d\n")


def test_decide_two_components(capsys, tmp_path):
    path = alphabet_file(tmp_path, "two.json", ["a", "b", "c", "d", "e"],
                         [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"]])
    code, out, _ = run(capsys, "decide", path)
    assert (code, out) == (0, "NOT EMBEDDABLE: two nontrivial components a-b, d-e\n")
    # a-b and c-d alone would embed: the P3 around e is reported instead
    path = alphabet_file(tmp_path, "two2.json", ["a", "b", "c", "d", "e", "f", "g"],
                         [["a", "b"], ["c", "d"], ["e", "f"], ["e", "g"]])
    code, out, _ = run(capsys, "decide", path)
    assert (code, out) == (0, "NOT EMBEDDABLE: two nontrivial components a-b, e-f\n")


def test_traceeq(capsys, p3):
    assert run(capsys, "traceeq", p3, "ab", "ba") == (0, "EQUIVALENT\n", "")
    assert run(capsys, "traceeq", p3, "ac", "ca") == (0, "NOT EQUIVALENT\n", "")


def test_lexnf(capsys, p3):
    assert run(capsys, "lexnf", p3, "ba") == (0, "ab\n", "")
    code, out, _ = run(capsys, "lexnf", "--json", p3, "ba")
    assert json.loads(out) == {"word": "ab"}


CAP_S = 5.0  # each command below takes about a second or less; quadratic code, minutes


def _timed_run(capsys, *argv):
    start = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - start < CAP_S, argv[0]
    return result


@pytest.mark.parametrize("shape", ["deep fallback", "long center"])
def test_queue_commands_stay_linear_at_64000_actions(capsys, shape):
    # the shapes of the 64,000-action kernel test, through main() in process
    if shape == "deep fallback":
        # every read falls back deep into the border table of pos
        w = ("a",) * 16_000 + ("b",) + ("a",) * 16_000 + ("~a",) * 31_999
    else:
        # every written letter is read back: a center of 32,001 letters
        r = ("a", "b", "c")
        w = r * 8_000 + tuple("~" + x for x in r) * 8_000 + tuple(a for x in r * 2_667 for a in (x, "~" + x))
    assert len(w) in (64_000, 64_002)
    half = len(w) // 2
    text, first, second = "".join(w), "".join(w[:half]), "".join(w[half:])
    queue = project_neg(w)
    expected = {
        ("nf", text): format_normal_form(normal_form(w)),
        ("mul", first, second): format_normal_form(multiply(normal_form(w[:half]), normal_form(w[half:]))),
        ("action", "".join(queue), text): format_state(action(queue, w)),
    }
    assert expected["nf", text] == expected["mul", first, second]
    for argv, line in expected.items():
        assert _timed_run(capsys, *argv) == (0, line + "\n", ""), argv[0]


def test_eq_stays_linear_on_a_shared_read_prefix_of_64000_reads(capsys):
    # a search from the empty queue up tried a queue at every length below
    # the shared reads, each in linear time: 26.9 s at 8,000 reads
    argv = ("eq", "--max-len", "1000000000", "~a" * 64_000 + "b", "~a" * 64_000 + "c")
    line = "DISTINGUISHED queue='" + "a" * 64_000 + "' lhs=b rhs=c\n"
    assert _timed_run(capsys, *argv) == (0, line, "")


def test_eq_on_long_periodic_centers_stays_under_its_cap(capsys):
    # no read block: the search tries a prefix at each of 3,001 lengths.
    # Running both words through action on each took over 10 s; their
    # normal-form images, at C speed, take about a second
    argv = ("eq", "--max-len", "1000000000", "a~a" * 3_000 + "b", "a~a" * 6_000 + "b")
    line = f"DISTINGUISHED queue='{'a' * 3_000}b' lhs=b{'a' * 3_000}b rhs=BOTTOM\n"
    assert _timed_run(capsys, *argv) == (0, line, "")


@pytest.mark.parametrize("shape", ["4,000-letter matching", "K(300,300)"])
def test_decide_stays_linear_on_large_alphabets(capsys, tmp_path, shape):
    if shape == "K(300,300)":
        left, right = [f"p{i}" for i in range(300)], [f"q{i}" for i in range(300)]
        letters, independent = left + right, [[x, y] for x in left for y in right]
    else:
        letters = [f"l{i}" for i in range(4_000)]
        independent = [letters[i:i + 2] for i in range(0, 4_000, 2)]
    path = alphabet_file(tmp_path, "big.json", letters, independent)
    recipe = decide_embeddable(IndependenceAlphabet.load(path)).recipe
    if isinstance(recipe, MatchingRecipe):
        line = "EMBEDDABLE (matching): " + " ".join(
            f"{x}->{i}/{role}" for x, (i, role) in recipe.pairing.items()
        )
    else:
        line = (f"EMBEDDABLE (complete bipartite): C1={{{','.join(recipe.part1)}}} "
                f"C2={{{','.join(recipe.part2)}}} isolated={{{','.join(recipe.isolated)}}}")
    assert _timed_run(capsys, "decide", path) == (0, line + "\n", "")


@pytest.mark.parametrize("shape", ["K(300,300)", "16,000-letter matching"])
def test_trace_commands_stay_linear_at_16000_letters(capsys, tmp_path, shape):
    # through main() in process: each word is one argument of about 100 KB,
    # and an argument over 128 KB fails a subprocess with E2BIG on Linux
    if shape == "K(300,300)":
        left, right = [f"p{i}" for i in range(300)], [f"q{i}" for i in range(300)]
        letters, independent = left + right, [[x, y] for x in left for y in right]
    else:
        letters = [f"l{i}" for i in range(16_000)]
        independent = [letters[i:i + 2] for i in range(0, 16_000, 2)]
    path = alphabet_file(tmp_path, "big.json", letters, independent)
    g = IndependenceAlphabet.load(path)
    rng = random.Random(9)
    w = [rng.choice(letters) for _ in range(16_000)]
    v = list(w)
    for _ in range(32_000):
        i = rng.randrange(len(v) - 1)
        if g.independent(v[i], v[i + 1]):
            v[i], v[i + 1] = v[i + 1], v[i]
    u = TraceWord(g, w)

    def verdict(v):
        return "EQUIVALENT" if trace_equivalent(u, TraceWord(g, v)) else "NOT EQUIVALENT"

    expected = {
        ("lexnf", path, " ".join(w)): format_word(lex_normal_form(u).word),
        ("traceeq", path, " ".join(w), " ".join(v)): verdict(v),
        ("traceeq", path, " ".join(w), " ".join(w[::-1])): verdict(w[::-1]),
    }
    assert list(expected.values())[1:] == ["EQUIVALENT", "NOT EQUIVALENT"]
    for argv, line in expected.items():
        assert _timed_run(capsys, *argv) == (0, line + "\n", ""), argv[0]


@pytest.mark.parametrize("shape", ["K(300,300)", "16,000-letter matching"])
def test_embed_stays_linear_in_its_output(capsys, tmp_path, shape):
    # an image is a^i b in a component, so output grows with the index of
    # each letter: words over the first 64 declared letters keep every
    # image at 65 symbols or fewer per copy, whatever the alphabet's size
    if shape == "K(300,300)":
        left, right = [f"p{i}" for i in range(300)], [f"q{i}" for i in range(300)]
        letters, independent = left + right, [[x, y] for x in left for y in right]
    else:
        letters = [f"l{i}" for i in range(16_000)]
        independent = [letters[i:i + 2] for i in range(0, 16_000, 2)]
    path = alphabet_file(tmp_path, "big.json", letters, independent)
    g = IndependenceAlphabet.load(path)
    rng = random.Random(9)
    w = [rng.choice(letters[:64]) for _ in range(16_000)]
    first, second = map(format_word, embed_to_two_free(g, TraceWord(g, w)))
    assert _timed_run(capsys, "embed", path, " ".join(w)) == (0, f"({first} | {second})\n", "")


# -- the exit contract under random argv -------------------------------------

_ALPHABET_POOL = {
    "path": b'{"letters": ["a", "b", "c"], "independent": [["a", "b"], ["b", "c"]]}',
    "triangle": b'{"letters": ["a", "b", "c"], "independent": [["a", "b"], ["b", "c"], ["a", "c"]]}',
    "wide": b'{"letters": ["aa", "b", "c"], "independent": [["aa", "b"]]}',
    "no-print-back": b'{"letters": ["a", "b", "ab"], "independent": []}',
    "not-utf8": b"\xff\xfe",
    "scalar-pair": b'{"letters": ["a"], "independent": [5]}',
    "unknown-letter": b'{"letters": ["a"], "independent": [["a", "z"]]}',
}


@pytest.fixture(scope="module")
def alphabet_pool(tmp_path_factory):
    """Each alphabet file of the pool, written once, and a path that does not exist."""
    root = tmp_path_factory.mktemp("pool")
    paths = []
    for name, content in _ALPHABET_POOL.items():
        (root / name).write_bytes(content)
        paths.append(str(root / name))
    return paths + [str(root / "absent.json")]


def _joined(tokens):
    return st.builds(str.join, st.sampled_from(("", " ")), st.lists(st.sampled_from(tokens), max_size=4))


_QUEUE_WORDS = _joined(("a", "b", "c", "~a", "~b", "~c"))
# where a plain word is expected, a queue word is a parse error
_PLAIN_WORDS = st.one_of(_joined(("a", "b", "c")), _QUEUE_WORDS)
# the positionals after the alphabet file, as in _WITNESS_KINDS: T, U, V, W
# queue words, P, Q, G, H plain words
_POSITIONALS = {"decide": "", "nf": "U", "mul": "UU", "eq": "UU", "action": "PU",
                "traceeq": "PP", "lexnf": "P", "embed": "P"}


@st.composite
def _argv(draw, pool):
    """A command line that parses: any subcommand with its positionals,
    words of at most 4 actions over {a, b, c}, and optional flags."""
    command = draw(st.sampled_from(sorted(_POSITIONALS) + ["witness"]))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--json")
    if command in ("nf", "mul", "eq", "action", "witness") and draw(st.booleans()):
        argv += ["--alphabet", draw(st.sampled_from(pool))]
    if command == "eq" and draw(st.booleans()):
        argv += ["--max-len", str(draw(st.integers(min_value=0, max_value=6)))]
    if command in ("decide", "traceeq", "lexnf", "embed"):
        argv.append(draw(st.sampled_from(pool)))
    if command == "witness":
        kind = draw(st.sampled_from(sorted(_WITNESS_KINDS)))
        names = _WITNESS_KINDS[kind][0]
        # sometimes the wrong number of arguments, a parse error
        names = draw(st.one_of(st.just(names), st.integers(min_value=0, max_value=6).map("U".__mul__)))
        argv.append(kind)
    else:
        names = _POSITIONALS[command]
    return argv + [draw(_PLAIN_WORDS if name in "PQGH" else _QUEUE_WORDS) for name in names]


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_parsed_command_line_ends_in_an_answer_or_a_documented_exit(capsys, alphabet_pool, data):
    argv = data.draw(_argv(alphabet_pool))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2, argv
    assert code in (0, 2, 3, 4, 5), argv
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
    else:
        assert err == "" and out.count("\n") == 1 and out.endswith("\n"), argv


@pytest.mark.parametrize("letters", [["x|y", "z"], ["~a", "a"], ["a", "b", "ab"]])
def test_letters_that_do_not_print_back_exit_2(capsys, tmp_path, letters):
    path = alphabet_file(tmp_path, "bad.json", letters, [])
    for argv in (("lexnf", path, letters[-1]), ("nf", "--alphabet", path, letters[-1])):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: letter ")


def test_embed(capsys, p3):
    code, out, _ = run(capsys, "embed", p3, "abc")
    assert (code, out) == (0, "(ab | baab)\n")
    code, out, _ = run(capsys, "embed", "--json", p3, "abc")
    assert json.loads(out) == {
        "first": "ab", "second": "baab", "text": "(ab | baab)",
    }


def test_embed_not_embeddable_exits_4(capsys, k3):
    code, out, err = run(capsys, "embed", k3, "a")
    assert code == 4
    assert out == ""
    assert err == "not embeddable: odd cycle a b c\n"


# -- witness command --------------------------------------------------------------

def test_witness_p2p3(capsys):
    code, out, _ = run(capsys, "witness", "p2p3", "a", "~c", "~c~c")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "p2p3"
    assert payload["x"] == [1, 1, 0]
    assert payload["y"] == [1, 1, 0]
    assert payload["verified"] is True


def test_witness_conjugated_takes_root_split(capsys):
    code, out, _ = run(capsys, "witness", "conjugated", "a~a", "a~a", "a~a", "", "a")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "conjugated:trivial"
    assert payload["x"] == [3, 2, 2]
    assert payload["y"] == [2, 3, 2]


def test_witness_nonconjugated(capsys):
    code, out, _ = run(capsys, "witness", "nonconjugated",
                       "a~b", "a~b", "a~b", "a", "b")
    payload = json.loads(out)
    assert (code, payload["kind"]) == (0, "nonconjugated")
    assert payload["lhs"] != payload["rhs"] or payload["x"] != payload["y"]


def test_witness_p4(capsys):
    code, out, _ = run(capsys, "witness", "p4", "a", "a", "~b", "~b")
    payload = json.loads(out)
    assert code == 0
    assert payload["x"] == [1, 3, 1, 1, 1]
    assert payload["y"] is None
    assert payload["lhs"] == "aaa~b~ba~ba"
    assert payload["rhs"] == "aaa~ba~ba~b"


def test_witness_wrong_arg_count(capsys):
    code, out, err = run(capsys, "witness", "p2p3", "a")
    assert code == 2
    assert out == ""
    assert "takes 3 arguments" in err and err.startswith("parse error:")


def test_witness_precondition_failure(capsys):
    code, out, err = run(capsys, "witness", "p2p3", "a", "b", "c")
    assert code == 3
    assert err.startswith("precondition violated:")
    assert "commute" in err


@pytest.mark.parametrize("argv, reason", [
    (("p2p3", "~a", "b", "~c"), "u must not read"),
    (("nonconjugated", "ab~a", "ab~a", "ab~a", "aa", "b"), "p is not primitive"),
    (("nonconjugated", "ab~a", "ab~a", "ab~a", "ab", "ba"), "must not be conjugate"),
    (("nonconjugated", "a~b", "a~b", "a~b", "", "b"), "p and q must be nonempty"),
    (("conjugated", "b~a", "a~a", "a~a", "", "a"), "not a positive power"),
    (("p4", "a", "a~b", "~c", "~c"), "u must not read"),
], ids=["p2p3", "nonconjugated-not-primitive", "nonconjugated-conjugate",
        "nonconjugated-empty-root", "conjugated", "p4"])
def test_each_witness_kind_rejects_its_outside_input_with_exit_3(capsys, argv, reason):
    code, out, err = run(capsys, "witness", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("precondition violated:") and reason in err
    assert err.count("\n") == 1


# -- error handling ----------------------------------------------------------------

def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "nf", "a~")
    assert code == 2
    assert err.startswith("parse error:")


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "decide", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("cannot read input:")


@pytest.mark.parametrize("content", [
    b"\xff\xfe",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
    b'{"letters": [' + b"1" * 5_000 + b"]}",  # integer past the digit limit
    b'{"letters": ["a"], "independent": [5]}',  # a pair that is not a list
    b'{"letters": ["a"], "independent": [["a", ["b"]]]}',  # an unhashable letter
    b'{"letters": [""]}',
    b'{"letters": [1]}',
    b'{"letters": ["a"], "independent": [["a"]]}',
    b'{"letters": ["a", "b"], "independent": [["a", "b", "a"]]}',
], ids=["not-utf8", "deep-nesting", "long-integer", "scalar-pair", "list-letter",
        "empty-letter", "integer-letter", "one-letter-pair", "three-letter-pair"])
def test_hostile_alphabet_files_exit_2(capsys, tmp_path, content):
    path = tmp_path / "alphabet.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "decide", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")
    assert err.count("\n") == 1


def test_failed_verification_exits_5(capsys, monkeypatch):
    import quemon.witness

    monkeypatch.setattr(quemon.witness, "_sides_agree", lambda forms, lhs, rhs: False)
    code, out, err = run(capsys, "witness", "nonconjugated",
                         "a~b", "a~b", "a~b", "a", "b")
    assert (code, out) == (5, "")
    assert err.startswith("runtime error (VerificationFailedError): nonconjugated")
    assert err.count("\n") == 1


def test_internal_error_exits_5(capsys, monkeypatch):
    import quemon.queue

    monkeypatch.setattr(quemon.queue, "overlap", lambda u, v: ("z",))
    code, out, err = run(capsys, "mul", "a~a", "b")
    assert (code, out) == (5, "")
    assert err == (
        "runtime error (InternalError): "
        "product center is not a suffix of the read projection\n"
    )


def test_witness_over_the_size_cap_exits_5(capsys):
    # by the closed forms each side would hold 10,141,301 actions
    n = 1300
    start = time.perf_counter()
    code, out, err = run(capsys, "witness", "conjugated",
                         "aa~a", "a" + "~a" * n, "a" * n + "~a", "", "a")
    assert time.perf_counter() - start < 2
    assert (code, out) == (5, "")
    assert err.startswith("runtime error (CapExceededError): ")
    assert "10141301" in err and err.count("\n") == 1


# the output of the witness below, unchanged since the check moved from the
# flat sides to the factors' normal forms
NEAR_CAP_SHA256 = "3922ceb99071a43b44591b5ba6377b42f3c43c95ccb89a69ca31e7b034f3d05a"
NEAR_CAP_MAX_RSS_MB = 320


def test_witness_near_its_cap_stays_under_its_time_and_memory_bounds():
    # each side holds 9,985,891 actions, just under the cap.  Checking the
    # flat sides by two normal-form scans peaked at 372 MB and took 7.4 s;
    # the check on the factors' normal forms peaks at 244 MB in about 2 s.
    # The child reads the peak of its own memory, VmHWM, after main returns:
    # RUSAGE_CHILDREN here would be the largest of every child this test
    # process ever waited for, and the child's RUSAGE_SELF starts from this
    # process's peak, which Linux carries over the exec.  tracemalloc misses
    # the transient copy of a moving realloc and memory the allocator keeps;
    # the resident peak does not
    n = 1290
    argv = ["witness", "conjugated", "aa~a", "a" + "~a" * n, "a" * n + "~a", "", "a"]
    child = (
        "import pathlib, sys\n"
        "from quemon.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "status = pathlib.Path('/proc/self/status').read_text()\n"
        "print(status.split('VmHWM:')[1].split()[0], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < CAP_S, f"took {elapsed:.1f}s"
    assert hashlib.sha256(proc.stdout).hexdigest() == NEAR_CAP_SHA256
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # VmHWM counts kB
    assert peak_mb < NEAR_CAP_MAX_RSS_MB, f"peaked at {peak_mb:.0f} MB"


# the output of `quemon witness` on all 58 battery entries, one line each
BATTERY_SHA256 = "b72f3bd1904c8b8c96275aed21b548df713108fda02fc6e287f24a035348bbb4"


def test_witness_prints_the_same_bytes_on_every_battery_entry(capsys):
    argvs = [
        *(["p2p3", *entry] for entry in P2P3_BATTERY),
        *(["nonconjugated", *entry] for entry in NONCONJUGATED_BATTERY),
        *(["conjugated", u, v, w, dec.g, dec.h] for u, v, w, dec, _ in CONJUGATED_BATTERY),
        *(["p4", *entry] for entry in P4_BATTERY),
    ]
    assert len(argvs) == 58
    digest = hashlib.sha256()
    for kind, *args in argvs:
        code, out, err = run(capsys, "witness", kind, *map(format_word, args))
        assert (code, err) == (0, ""), (kind, args)
        digest.update(out.encode())
    assert digest.hexdigest() == BATTERY_SHA256


class _ClosedPipe(io.StringIO):
    """An in-memory stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["nf", "ab~a"],
    ["nf", "--json", "ab~a"],
    ["witness", "p2p3", "a", "~c", "~c~c"],
], ids=["text", "json", "witness"])
def test_failed_output_write_exits_1(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(argv)
    assert code == 1
    assert capsys.readouterr().err == "cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("word", ["ab~a", "a" * 100_000], ids=["short", "long"])
def test_closed_stdout_pipe_exits_1_with_one_line(word):
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quemon.cli", "nf", word],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "cannot write output: [Errno 32] Broken pipe\n"


def test_output_is_stable_across_runs(capsys, k3):
    first = run(capsys, "decide", "--json", k3)
    second = run(capsys, "decide", "--json", k3)
    assert first == second
    first = run(capsys, "witness", "p4", "a", "a", "~b", "~b")
    second = run(capsys, "witness", "p4", "a", "a", "~b", "~b")
    assert first == second


# -- parser ------------------------------------------------------------------------

def _parser_pin(parser, help_text=None):
    """prog -> (description, help, actions) for parser and the parser of each
    of its subcommands, each action as (class, option strings, dest, nargs,
    choices, default, metavar, help, type), optionals first as --help lists
    them.  Fields, not help text: argparse headings differ between Python
    versions."""
    actions = sorted(parser._actions, key=lambda a: not a.option_strings)
    pin = {parser.prog: (parser.description, help_text, [
        (type(a).__name__, a.option_strings, a.dest, a.nargs,
         None if a.choices is None else list(a.choices), a.default, a.metavar, a.help,
         getattr(a.type, "__name__", a.type))
        for a in actions
    ])}
    for a in actions:
        if isinstance(a, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in a._choices_actions}
            for name, sub in a.choices.items():
                pin.update(_parser_pin(sub, helps[name]))
    return pin


HELP = ("_HelpAction", ["-h", "--help"], "help", 0, None, "==SUPPRESS==", None,
        "show this help message and exit", None)
JSON = ("_StoreTrueAction", ["--json"], "json", 0, None, False, None, "machine-readable output",
        None)
ALPHABET = ("_StoreAction", ["--alphabet"], "alphabet", None, None, None, "FILE",
            "independence alphabet JSON declaring the letters", None)
FILE = ("_StoreAction", [], "file", None, None, None, None, "independence alphabet JSON", None)
WORD, WORD1, WORD2 = (("_StoreAction", [], dest, None, None, None, None, None, None)
                      for dest in ("word", "word1", "word2"))

PARSER_PIN = {
    "quemon": ("Queue monoid computations, trace monoids, and embeddings.", None, [
        HELP,
        ("_SubParsersAction", [], "command", "A...",
         ["decide", "nf", "mul", "eq", "action", "traceeq", "lexnf", "embed", "witness"],
         None, None, None, None),
    ]),
    "quemon decide": (None, "decide embeddability of an independence alphabet",
                      [HELP, JSON, FILE]),
    "quemon nf": (None, "normal form of a queue word", [HELP, JSON, ALPHABET, WORD]),
    "quemon mul": (None, "normal form of the product of two queue words",
                   [HELP, JSON, ALPHABET, WORD1, WORD2]),
    "quemon eq": (None, "decide equivalence of two queue words", [
        HELP, JSON, ALPHABET,
        ("_StoreAction", ["--max-len"], "max_len", None, None, 8, "N",
         "bound for the distinguishing-queue search (default 8); it stops earlier, at M + 1, "
         "where M is the larger number of reads in the two words", "int"),
        WORD1, WORD2,
    ]),
    "quemon action": (None, "apply a queue word to a queue state", [
        HELP, JSON, ALPHABET,
        ("_StoreAction", [], "queue", None, None, None, None,
         "initial queue contents (may be empty)", None),
        WORD,
    ]),
    "quemon traceeq": (None, "decide trace equivalence over an independence alphabet",
                       [HELP, JSON, FILE, WORD1, WORD2]),
    "quemon lexnf": (None, "lexicographic trace normal form", [HELP, JSON, FILE, WORD]),
    "quemon embed": (None, "embed a word into a product of two free monoids",
                     [HELP, JSON, FILE, WORD]),
    "quemon witness": (None, "generate a verified witness equation (JSON)", [
        HELP,
        ("_StoreTrueAction", ["--json"], "json", 0, None, True, None, "machine-readable output",
         None),
        ALPHABET,
        ("_StoreAction", [], "kind", None, ["conjugated", "nonconjugated", "p2p3", "p4"],
         None, None, None, None),
        ("_StoreAction", [], "args", "*", None, None, None,
         "queue words and root words per kind", None),
    ]),
}


def test_parser_declares_every_option_as_before():
    pin = _parser_pin(_build_parser())
    assert list(pin) == list(PARSER_PIN)
    for prog, (description, help_text, actions) in PARSER_PIN.items():
        assert pin[prog][:2] == (description, help_text), prog
        assert [tuple(row) for row in pin[prog][2]] == actions, prog
