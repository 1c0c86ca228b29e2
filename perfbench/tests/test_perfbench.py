"""Tests of the benchmark's own pieces: generators, checkers, statistics.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import battery  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from harness import Tracer  # noqa: E402


# -- generators -----------------------------------------------------------------------

def _inputs(name: str, seed: int, tmp: Path) -> list:
    wl = workloads.build(name, seed, tmp, Tracer())
    return [(op.key, op.name, op.size, repr(op.args)) for op in wl.ops]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic(name, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = _inputs(name, 7, a)
    again = [(k, n, s, args.replace(str(b), str(a))) for k, n, s, args in _inputs(name, 7, b)]
    other = [(k, n, s, args.replace(str(c), str(a))) for k, n, s, args in _inputs(name, 8, c)]
    assert first == again
    assert first != other


def _classify(alph: dict) -> str:
    """Class of an independence graph, from its degrees, components and a
    two-colouring."""
    adj = gen.independence_sets(alph)
    if all(len(v) <= 1 for v in adj.values()):
        return "matching"
    seen, comps = set(), []
    for s in adj:
        if s in seen or not adj[s]:
            continue
        comp, stack = {s}, [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(comp)
    if len(comps) > 1:
        return "two-components"
    comp = comps[0]
    colour = {}
    for s in comp:
        if s in colour:
            continue
        colour[s], stack = 0, [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in colour:
                    colour[y] = 1 - colour[x]
                    stack.append(y)
                elif colour[y] == colour[x]:
                    return "odd-cycle"
    side = [{x for x in comp if colour[x] == c} for c in (0, 1)]
    complete = all(side[1] <= adj[x] for x in side[0])
    return "bipartite" if complete else "missing-pair"


@pytest.mark.parametrize("cls", gen.CLASSES)
def test_planted_alphabets_have_their_class(cls):
    from quemon.alphabet import IndependenceAlphabet, decide_embeddable

    rng = random.Random(cls)
    for k in (3, 4, 6, 10, 25, 60):
        if k < 6 and cls not in ("matching", "bipartite"):
            continue
        for _ in range(5):
            alph = gen.planted_alphabet(rng, k, cls)
            assert sorted(alph["letters"]) == sorted(gen.letter_names(k))
            assert _classify(alph) == cls
            g = IndependenceAlphabet(alph["letters"], alph["independent"])
            assert checks.check_verdict(alph, decide_embeddable(g)) is None


def test_rewrite_scramble_keeps_the_class_and_letter_change_breaks_it():
    from quemon.queue import equivalent

    rng = random.Random(3)
    for n in (2, 5, 30, 200):
        for w in (gen.random_queue_word(rng, n, "abc"), gen.periodic_queue_word(rng, n)):
            assert equivalent(w, gen.rewrite_scramble(rng, w, 3 * n))
            assert not equivalent(w, gen.change_one_letter(rng, w, "abc"))


def test_trace_swaps_plant_equivalence():
    rng = random.Random(4)
    alph = gen.planted_alphabet(rng, 10, "bipartite")
    adj = gen.independence_sets(alph)
    w = gen.random_trace_word(rng, alph["letters"], 200)
    assert checks.same_trace(w, gen.swap_independent(rng, w, adj, 400), adj)
    assert not checks.same_trace(w, gen.swap_dependent(rng, w, adj), adj)


def test_battery_copy_matches_the_test_batteries():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import batteries
    finally:
        sys.path.remove(str(ROOT / "tests"))
    parse = workloads.parse
    assert [tuple(map(parse, r)) for r in battery.P2P3] == [tuple(e) for e in batteries.P2P3_BATTERY]
    assert [tuple(map(parse, r[:3])) + (parse(r[3]), parse(r[4])) for r in battery.NONCONJUGATED] == [
        tuple(e) for e in batteries.NONCONJUGATED_BATTERY]
    assert [tuple(map(parse, r[:3])) + (parse(r[3]), parse(r[4]), r[5]) for r in battery.CONJUGATED] == [
        e[:3] + (e[3].g, e[3].h, e[4]) for e in batteries.CONJUGATED_BATTERY]
    assert [tuple(map(parse, r)) for r in battery.P4] == [tuple(e) for e in batteries.P4_BATTERY]
    total = sum(map(len, (battery.P2P3, battery.NONCONJUGATED, battery.CONJUGATED, battery.P4)))
    assert total == 58


# -- checkers reject corrupted answers ------------------------------------------------------

def test_prefix_function_fold_matches_normal_form_exhaustively():
    import itertools

    from quemon.queue import normal_form

    for n in range(7):
        for w in itertools.product(("a", "b", "~a", "~b"), repeat=n):
            assert checks.nf_triple(w) == tuple(normal_form(w))


def test_nf_check_rejects_a_shifted_center():
    from quemon.queue import normal_form

    rng = random.Random(5)
    for _ in range(50):
        w = gen.periodic_queue_word(rng, 60) if rng.random() < 0.5 else gen.random_queue_word(rng, 60, "ab")
        nf = normal_form(w)
        assert checks.check_nf(w, nf) is None
        neg, pos, c = nf.reads + nf.center, nf.center + nf.writes, len(nf.center)
        for k in (c - 1, c + 1):
            if 0 <= k <= min(len(neg), len(pos)):
                assert checks.check_nf(w, (neg[: len(neg) - k], pos[:k], pos[k:])) is not None


def test_product_power_and_action_checks_reject_wrong_answers():
    from quemon.queue import QueueNormalForm, action, multiply, nf_power, power_mu

    x = QueueNormalForm(("a",), ("b", "a"), ("b",))
    y = QueueNormalForm(("b",), ("a",), ("a", "b"))
    out = multiply(x, y)
    assert checks.check_product(x, y, out) is None
    assert checks.check_product(x, y, out._replace(writes=out.writes + ("a",))) is not None
    p = nf_power(x, 7)
    assert checks.check_power(x, 7, p, power_mu(x, 7)) is None
    assert checks.check_power(x, 7, p, power_mu(x, 7)[1:]) is not None
    q, w = ("a", "b", "c"), ("~a", "c")
    assert checks.check_action(q, w, action(q, w)) is None
    assert checks.check_action(q, w, ("c", "b")) is not None
    assert checks.check_action(q, ("~b",), ()) is not None


def test_overlap_and_root_checks():
    assert checks.prefix_overlap(tuple("xabab"), tuple("ababy")) == tuple("abab")
    assert checks.check_overlap(tuple("xabab"), tuple("ababy"), tuple("ab")) is not None
    assert checks.check_primitive_root(tuple("abab"), (tuple("ab"), 2)) is None
    assert checks.check_primitive_root(tuple("abab"), (tuple("abab"), 1)) is not None


def test_verdict_check_rejects_a_wrong_verdict():
    from quemon.alphabet import (
        Embeddable, IndependenceAlphabet, MissingPair, NotCompleteBipartite, NotEmbeddable, OddCycle,
        decide_embeddable,
    )

    rng = random.Random(6)
    alph = gen.planted_alphabet(rng, 12, "odd-cycle")
    g = IndependenceAlphabet(alph["letters"], alph["independent"])
    verdict = decide_embeddable(g)
    assert checks.check_verdict(alph, verdict) is None
    cyc = verdict.reason.witness.vertices
    assert checks.check_verdict(alph, NotEmbeddable(NotCompleteBipartite(OddCycle(cyc[:-1])))) is not None
    assert checks.check_verdict(alph, NotEmbeddable(NotCompleteBipartite(MissingPair(cyc[:2])))) is not None
    bip = gen.planted_alphabet(rng, 12, "bipartite")
    good = decide_embeddable(IndependenceAlphabet(bip["letters"], bip["independent"]))
    assert checks.check_verdict(bip, good) is None
    assert checks.check_verdict(alph, good) is not None
    r = good.recipe
    swapped = Embeddable(type(r)(r.part1[1:], r.part2 + r.part1[:1], r.isolated))
    assert checks.check_verdict(bip, swapped) is not None


def test_lexnf_check_rejects_a_non_normal_or_inequivalent_word():
    from quemon.alphabet import IndependenceAlphabet
    from quemon.trace import TraceWord, lex_normal_form

    rng = random.Random(8)
    alph = gen.planted_alphabet(rng, 10, "matching")
    adj = gen.independence_sets(alph)
    rank = {x: i for i, x in enumerate(alph["letters"])}
    g = IndependenceAlphabet(alph["letters"], alph["independent"])
    w = gen.random_trace_word(rng, alph["letters"], 300)
    nf = lex_normal_form(TraceWord(g, w)).word
    assert checks.check_lexnf(w, nf, adj, rank) is None
    i = next(i for i in range(len(nf) - 1) if nf[i + 1] in adj[nf[i]])
    assert checks.check_lexnf(w, nf[:i] + (nf[i + 1], nf[i]) + nf[i + 2:], adj, rank) is not None
    j = next(i for i in range(len(nf) - 1) if nf[i] != nf[i + 1] and nf[i + 1] not in adj[nf[i]])
    assert checks.check_lexnf(w, nf[:j] + (nf[j + 1], nf[j]) + nf[j + 2:], adj, rank) is not None


def test_witness_check_rejects_a_wrong_report():
    from dataclasses import replace

    from quemon.witness import conjugated_witness, p2p3_witness
    from quemon.words import ConjugacyDecomposition

    u, v, w = map(workloads.parse, battery.P2P3[7])
    rep = p2p3_witness(u, v, w)
    assert checks.check_witness("p2p3", (u, v, w), rep, None) is None
    assert checks.check_witness("p2p3", (u, v, w), replace(rep, verified=False), None) is not None
    bumped = replace(rep, x=(rep.x[0], rep.x[1] + 1, rep.x[2]), lhs=rep.lhs + v)
    assert checks.check_witness("p2p3", (u, v, w), bumped, None) is not None
    row = battery.CONJUGATED[6]
    u, v, w, g, h = map(workloads.parse, row[:5])
    rep = conjugated_witness(u, v, w, ConjugacyDecomposition(g, h))
    assert checks.check_witness("conjugated", (u, v, w), rep, row[5]) is None
    assert checks.check_witness("conjugated", (u, v, w), rep, "wuv") is not None


def test_cli_check_rejects_changed_bytes(tmp_path):
    argv, want = workloads.README_EXAMPLES[0]
    assert workloads._check_cli(argv, (0, want), want) is None
    assert workloads._check_cli(argv, (0, want.replace(b"|b", b"|c")), want) is not None
    assert workloads._check_cli(argv, (1, want), want) is not None
    assert workloads._check_cli(["nf", "a~b"], (0, b"<b||a> \n"), None) is not None


def test_family_witnesses_pick_the_predicted_rotation():
    rng = random.Random(9)
    from quemon.witness import conjugated_witness
    from quemon.words import ConjugacyDecomposition

    seen = set()
    for m in (2, 3, 4):
        for _ in range(6):
            u, v, w, g, h, rot = gen.family_conjugated(rng, m)
            rep = conjugated_witness(u, v, w, ConjugacyDecomposition(g, h))
            assert checks.check_witness("conjugated", (u, v, w), rep, rot) is None
            seen.add(rot)
    assert len(seen) >= 2


# -- statistics -----------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1.0, 2.0, 0.5])
def test_slope_fit_recovers_a_known_exponent(k):
    rng = random.Random(10)
    pts = [(n, 3e-6 * n ** k * math.exp(rng.uniform(-0.02, 0.02))) for n in (125, 250, 500, 1000, 2000)]
    assert abs(harness.loglog_slope(pts) - k) < 0.05
    assert harness.loglog_slope([(100, 1.0), (100, 2.0)]) == 0.0


def test_tail_percentile_leaves_ten_samples_above():
    for p in (90, 95, 99):
        n = harness.min_ops_for(p)
        for size, enough in ((n, True), (n - 1, False)):
            xs = [float(i) for i in range(size)]
            above = sum(x > harness.percentile(xs, p) for x in xs)
            assert (above >= 10) is enough


def test_self_time_subtracts_children():
    spans = [(0, "op", 0.0, 10.0, None, 0), (1, "cli.process", 1.0, 9.0, 0, 0),
             (2, "cli.import", 2.0, 4.0, 1, 0), (3, "cli.main", 4.0, 8.0, 1, 0)]
    assert harness.self_times(spans) == {"op": 2.0, "cli.process": 2.0, "cli.import": 2.0, "cli.main": 4.0}


# -- run.py end to end -------------------------------------------------------------------------

def _run(cwd: Path, *args: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_same_seed_gives_the_same_digest_and_all_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = []
    for trace, hashseed in (("0", "1"), ("1", "2")):
        p = _run(ROOT, "--workload", "witness-battery", "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, hashseed=hashseed)
        assert p.returncode == 0, p.stderr
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        want = spec["per_layer" if trace == "1" else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in want}
        digests.append(next(x for x in lines if x.startswith("output digest")))
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run(tmp_path, "--workload", "queue-long", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
