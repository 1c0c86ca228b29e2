"""Measure the ROADMAP item-1 baseline figures on this machine.

    python3 perfbench/baseline.py

Prints one markdown row per figure: what was timed, the ROADMAP's figure
and the median of several runs here.  Nothing is written to disk.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from harness import loglog_slope, median  # noqa: E402
from workloads import CHILD, README_ALPHABETS, parse  # noqa: E402


def timed(fn, *args, repeat: int = 5) -> float:
    """Median milliseconds of repeat calls."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return median(times) * 1000


def main() -> None:
    from quemon.alphabet import IndependenceAlphabet
    from quemon.queue import nf_power, normal_form, power_mu
    from quemon.trace import TraceWord, lex_normal_form

    rng = random.Random(1)
    rows = []
    for letters in (gen.LETTERS, "ab"):
        w = gen.random_queue_word(rng, 4000, letters)
        rows.append((f"`normal_form`, random 4,000-action word over {len(letters)} letters", "67 ms",
                     f"{timed(normal_form, w):.0f} ms"))
    ladder = {n: timed(normal_form, ("a",) * n + ("~a",) * n, repeat=3) for n in (500, 1000, 2000, 4000)}
    rows.append(("`normal_form`, `a^2000 ~a^2000`", "168 ms (slope ≈ 2)",
                 f"{ladder[2000]:.0f} ms (slope {loglog_slope(list(ladder.items())):.2f} over n = 500..4,000)"))
    rows.append(("`normal_form`, `a^4000 ~a^4000`", "—", f"{ladder[4000]:.0f} ms"))
    for word in ("a~a", "ab~a", "~abcd"):
        x = normal_form(parse(word))
        label = f"x = nf(`{word}`)"
        rows.append((f"`nf_power(x, 4000)`, {label}", "480 ms", f"{timed(nf_power, x, 4000, repeat=3):.0f} ms"))
        rows.append((f"`power_mu(x, 4000)`, {label}", "0.1 ms", f"{timed(power_mu, x, 4000):.3g} ms"))
    alphabets = [("the README's 3-letter path alphabet", README_ALPHABETS["p3"])]
    alphabets += [(f"a 28-letter {cls} alphabet", gen.planted_alphabet(rng, 28, cls))
                  for cls in ("matching", "bipartite")]
    for label, alph in alphabets:
        g = IndependenceAlphabet(alph["letters"], alph["independent"])
        u = TraceWord(g, gen.random_trace_word(rng, alph["letters"], 800))
        rows.append((f"`lex_normal_form`, 800 letters over {label}", "26 ms",
                     f"{timed(lex_normal_form, u):.0f} ms"))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc, imp, bare = [], [], []
    for _ in range(11):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", CHILD, "nf", "ab~a"], env=env,
                             capture_output=True, check=True)
        proc.append(perf_counter() - t0)
        c0, c1 = (float(x) for x in out.stderr.split()[1:3])
        imp.append(c1 - c0)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(perf_counter() - t0)
    p, i, b = (median(xs[1:]) * 1000 for xs in (proc, imp, bare))
    rows.append(("`quemon nf` in a cold process", "160 ms, about 50 ms of it package import",
                 f"{p:.0f} ms, {i:.0f} ms of it `import quemon`; a bare `python -c pass` takes {b:.0f} ms"))

    print("| what was timed | ROADMAP | this machine |")
    print("| --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")


if __name__ == "__main__":
    main()
