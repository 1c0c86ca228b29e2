"""The four workloads: seeded inputs, the ops that time them, their checks
and the counts each run reports.

Sizes and mixes come from workloads.json.  Inputs are generated before
anything is timed; alphabet files are written to the run's work directory
and read back with IndependenceAlphabet.load, which is the set-up a user
pays.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import battery
import checks
import gen
from harness import Op, Tracer

_RECORDS = json.loads(Path(__file__).with_name("workloads.json").read_text())
SPEC = _RECORDS["workloads"]
MACHINE = _RECORDS["machine"]

NAMES = tuple(SPEC)


@dataclass
class Workload:
    ops: list[Op]
    alphabet_files: list[str] = field(default_factory=list)
    counts: Callable[[dict], dict[str, int]] = lambda first: {}
    cli: "CliRunner | None" = None


def build(name: str, seed: int, workdir: Path, tracer: Tracer) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, workdir, tracer)


def _shuffled(rng: random.Random, ops: list[Op]) -> list[Op]:
    """A fixed seeded order, so a round does not run all large inputs last."""
    rng.shuffle(ops)
    return ops


def _write_alphabet(workdir: Path, name: str, alph: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"letters": alph["letters"], "independent": alph["independent"]}))
    return str(path)


def _load_all(paths: list[str], tracer: Tracer) -> dict:
    from quemon.alphabet import IndependenceAlphabet

    out = {}
    for p in paths:
        with tracer.span("alphabet.load"):
            out[p] = IndependenceAlphabet.load(p)
    return out


# -- queue-long -------------------------------------------------------------------

def _queue_long(rng: random.Random, workdir: Path, tracer: Tracer) -> Workload:
    from quemon.queue import BOTTOM, QueueNormalForm, action, equivalent, multiply, nf_power, normal_form, power_mu
    from quemon.words import overlap

    lad = SPEC["queue-long"]["ladders"]
    ops: list[Op] = []

    def nf_of(t) -> QueueNormalForm:
        return QueueNormalForm(*t)

    for idx, n in enumerate(lad["words"]):
        words = {"random": gen.random_queue_word(rng, n), "periodic": gen.periodic_queue_word(rng, n)}
        for kind, w in words.items():
            ops.append(Op(f"nf/{kind}/{n}", "queue.normal_form", n, normal_form, (w,),
                          lambda out, _, w=w: checks.check_nf(w, out)))
            root = gen.primitive_word(rng, rng.randint(1, 3), "ab") if kind == "periodic" else None
            x = gen.random_triple(rng, n // 2, root)
            y = gen.random_triple(rng, n // 2, root)
            ops.append(Op(f"mul/{kind}/{n}", "queue.multiply", n, multiply, (nf_of(x), nf_of(y)),
                          lambda out, _, x=x, y=y: checks.check_product(x, y, out)))
            u = x[1] + y[0] + y[1]
            v = x[1] + x[2] + y[1]
            ops.append(Op(f"overlap/{kind}/{n}", "words.overlap", n, overlap, (u, v),
                          lambda out, _, u=u, v=v: checks.check_overlap(u, v, out)))
        # which word gets the rewritten copy alternates along the ladder
        pair_kinds = ("rewritten", "changed") if idx % 2 == 0 else ("changed", "rewritten")
        for (kind, w), how in zip(words.items(), pair_kinds):
            if how == "rewritten":
                other, want = gen.rewrite_scramble(rng, w, 2 * len(w)), True
            else:
                other, want = gen.change_one_letter(rng, w, "abc" if kind == "periodic" else gen.LETTERS), False
            ops.append(Op(f"eq/{kind}-{how}/{n}", "queue.equivalent", n, equivalent, (w, other),
                          lambda out, _, want=want: None if out is want else f"equivalent returned {out}"))

    for n in lad["power_n"]:
        for kind in ("short", "long"):
            x = gen.random_triple(rng, 4, gen.distinct_word(rng, 2, "ab")) if kind == "long" else gen.short_element(rng)
            kp, km = f"nf_power/{kind}/{n}", f"power_mu/{kind}/{n}"
            ops.append(Op(kp, "queue.nf_power", n, nf_power, (nf_of(x), n),
                          lambda out, first, x=x, n=n, km=km: checks.check_power(x, n, out, first[km])))
            ops.append(Op(km, "queue.power_mu", n, power_mu, (nf_of(x), n),
                          lambda out, first, kp=kp: None if tuple(out) == tuple(first[kp][1])
                          else "power_mu differs from the center of nf_power"))

    for m in lad["queue_letters"]:
        q, w = gen.queue_and_reader(rng, m)
        ops.append(Op(f"action/{m}", "queue.action", m, action, (q, w),
                      lambda out, _, q=q, w=w: checks.check_action(q, w, None if out is BOTTOM else out)))

    def counts(first: dict) -> dict[str, int]:
        actions = centers = 0
        for op in ops:
            out = first[op.key]
            if op.name in ("queue.normal_form", "queue.action"):
                actions += len(op.args[1] if op.name == "queue.action" else op.args[0])
            elif op.name == "queue.equivalent":
                actions += len(op.args[0]) + len(op.args[1])
            elif op.name in ("queue.multiply", "queue.nf_power", "queue.power_mu"):
                actions += len(checks.nf_word(op.args[0]))
                if op.name == "queue.multiply":
                    actions += len(checks.nf_word(op.args[1]))
            if op.name in ("queue.normal_form", "queue.multiply", "queue.nf_power"):
                centers += len(out[1])
            elif op.name == "queue.power_mu":
                centers += len(out)
        return {"queue.actions_in": actions, "queue.center_len_sum": centers}

    return Workload(_shuffled(rng, ops), counts=counts)


# -- trace-embed ------------------------------------------------------------------

def _trace_embed(rng: random.Random, workdir: Path, tracer: Tracer) -> Workload:
    from quemon.alphabet import decide_embeddable
    from quemon.embed import embed_to_two_free, letter_images, verify_embedding_bounded
    from quemon.trace import TraceWord, lex_normal_form, trace_equivalent

    lad = SPEC["trace-embed"]["ladders"]
    planted: dict[str, dict] = {}
    for k in lad["letters"]:
        for cls in gen.CLASSES:
            planted[f"{cls}-{k}"] = gen.planted_alphabet(rng, k, cls)
    for k, n in lad["verify"]:
        planted[f"small-{k}-{n}"] = gen.planted_alphabet(rng, k, rng.choice(("matching", "bipartite")))
    files = {name: _write_alphabet(workdir, name, a) for name, a in planted.items()}
    loaded = _load_all(list(files.values()), tracer)
    alph = {name: loaded[path] for name, path in files.items()}
    indep = {name: gen.independence_sets(a) for name, a in planted.items()}

    ops: list[Op] = []
    for name, a in planted.items():
        if not name.startswith("small"):
            ops.append(Op(f"decide/{name}", "alphabet.decide_embeddable", len(a["letters"]),
                          decide_embeddable, (alph[name],),
                          lambda out, _, a=a: checks.check_verdict(a, out)))

    for i, n in enumerate(lad["trace_word"]):
        for cls in (gen.CLASSES[i % 5], gen.CLASSES[(i + 2) % 5]):
            name = f"{cls}-{lad['word_alphabet_letters']}"
            g, ind, letters = alph[name], indep[name], planted[name]["letters"]
            rank = {x: i for i, x in enumerate(letters)}
            w = gen.random_trace_word(rng, letters, n)
            same = gen.swap_independent(rng, w, ind, 2 * n)
            other = gen.swap_dependent(rng, w, ind)
            base = f"{name}/{n}"
            ops.append(Op(f"lexnf/{base}", "trace.lex_normal_form", n, lex_normal_form, (TraceWord(g, w),),
                          lambda out, _, w=w, ind=ind, rank=rank: checks.check_lexnf(w, out.word, ind, rank)))
            ops.append(Op(f"lexnf-swapped/{base}", "trace.lex_normal_form", n, lex_normal_form,
                          (TraceWord(g, same),),
                          lambda out, first, base=base: None if out == first[f"lexnf/{base}"]
                          else "swapped copy has another normal form"))
            for tag, v, want in (("swapped", same, True), ("dependent", other, False)):
                ops.append(Op(f"traceeq-{tag}/{base}", "trace.trace_equivalent", n, trace_equivalent,
                              (TraceWord(g, w), TraceWord(g, v)),
                              lambda out, _, want=want: None if out is want else f"trace_equivalent returned {out}"))

    for i, n in enumerate(lad["embed_word"]):
        name = f"{('matching', 'bipartite')[i % 2]}-{lad['embed_alphabet_letters'][i // 2 % 2]}"
        g, ind, letters = alph[name], indep[name], planted[name]["letters"]
        w = gen.random_trace_word(rng, letters, n)
        same = gen.swap_independent(rng, w, ind, 2 * n)
        other = gen.swap_dependent(rng, w, ind)
        base = f"{name}/{n}"
        ops.append(Op(f"embed/{base}", "embed.embed_to_two_free", n, embed_to_two_free, (g, TraceWord(g, w)),
                      lambda out, first, base=base: None if out != first[f"embed-dependent/{base}"]
                      else "inequivalent words share an image"))
        for tag, v in (("swapped", same), ("dependent", other)):
            ops.append(Op(f"embed-{tag}/{base}", "embed.embed_to_two_free", n, embed_to_two_free,
                          (g, TraceWord(g, v)),
                          lambda out, first, base=base, tag=tag: None if (out == first[f"embed/{base}"]) == (tag == "swapped")
                          else "image does not follow trace equivalence"))

    for k, n in lad["verify"]:
        name = f"small-{k}-{n}"
        g = alph[name]
        images = letter_images(g)
        want = checks.count_traces(planted[name]["letters"], indep[name], n)
        ops.append(Op(f"verify/{name}", "embed.verify_embedding_bounded", k ** n, verify_embedding_bounded,
                      (g, images, n),
                      lambda out, _, want=want: None if out.ok and (out.words_checked, out.classes) == want
                      else f"report {out.ok} {out.words_checked} {out.classes}, want True {want}"))

    def counts(first: dict) -> dict[str, int]:
        letters = sum(sum(len(t.word) for t in op.args) for op in ops if op.name.startswith("trace."))
        reports = [first[op.key] for op in ops if op.name == "embed.verify_embedding_bounded"]
        return {"trace.letters_in": letters,
                "embed.words_checked": sum(r.words_checked for r in reports),
                "embed.classes": sum(r.classes for r in reports)}

    return Workload(_shuffled(rng, ops), list(files.values()), counts)


# -- witness-battery ----------------------------------------------------------------

def parse(text: str) -> tuple:
    """A queue word over one-character letters: x writes, ~x reads."""
    out, i = [], 0
    while i < len(text):
        if text[i] == "~":
            out.append(text[i: i + 2])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return tuple(out)


def _witness_battery(rng: random.Random, workdir: Path, tracer: Tracer) -> Workload:
    from quemon.witness import conjugated_witness, nonconjugated_witness, p2p3_witness, p4_witness
    from quemon.words import ConjugacyDecomposition, overlap, primitive_root

    def conjugated(u, v, w, g, h):
        return conjugated_witness(u, v, w, ConjugacyDecomposition(g, h))

    builders = {"p2p3": p2p3_witness, "nonconjugated": nonconjugated_witness,
                "conjugated": conjugated, "p4": p4_witness}
    entries: list[tuple[str, str, tuple, str | None]] = []
    for kind, rows in (("p2p3", battery.P2P3), ("nonconjugated", battery.NONCONJUGATED),
                       ("conjugated", battery.CONJUGATED), ("p4", battery.P4)):
        for i, row in enumerate(rows):
            rot = row[5] if kind == "conjugated" else None
            args = tuple(parse(t) for t in row[:5 if kind == "conjugated" else len(row)])
            entries.append((f"fixed/{kind}/{i}", kind, args, rot))
    lad = SPEC["witness-battery"]["ladders"]
    for m in lad["family_scale"]:
        for kind, family in gen.FAMILIES.items():
            for j in range(lad["family_instances"]):
                args = family(rng, m)
                rot = args[5] if kind == "conjugated" else None
                entries.append((f"family/{kind}/{m}/{j}", kind, args[:5], rot))

    ops: list[Op] = []
    for key, kind, args, rot in entries:
        size = sum(len(a) for a in args[:4 if kind == "p4" else 3])
        ops.append(Op(key, f"witness.{kind}", size, builders[kind], args,
                      lambda out, _, kind=kind, args=args, rot=rot:
                      checks.check_witness(kind, args[:4 if kind == "p4" else 3], out, rot)))

    for n in lad["words"]:
        r = gen.primitive_word(rng, rng.randint(2, 5), "ab")
        power = r * (n // len(r))
        prim = power[:-1] + ("c",)
        for tag, w in (("power", power), ("primitive", prim)):
            ops.append(Op(f"root/{tag}/{n}", "words.primitive_root", len(w), primitive_root, (w,),
                          lambda out, _, w=w: checks.check_primitive_root(w, out)))
        s = gen.primitive_word(rng, rng.randint(2, 5), "ab")
        u = tuple(rng.choice("ab") for _ in range(len(s))) + s * (n // len(s))
        v = s * (n // len(s) - 1) + tuple(rng.choice("ab") for _ in range(len(s)))
        ops.append(Op(f"overlap/{n}", "words.overlap", n, overlap, (u, v),
                      lambda out, _, u=u, v=v: checks.check_overlap(u, v, out)))

    def counts(first: dict) -> dict[str, int]:
        reports = [first[op.key] for op in ops if op.name.startswith("witness.")]
        return {"witness.equation_actions": sum(len(r.lhs) + len(r.rhs) for r in reports)}

    return Workload(_shuffled(rng, ops), counts=counts)


# -- cli-cold -----------------------------------------------------------------------

# A child process that times its own import and main, then reports on stderr.
CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import quemon.cli\n"
    "t1 = time.perf_counter()\n"
    "rc = quemon.cli.main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.flush()\n"
    "import resource\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "sys.stderr.write(f'\\n@perfbench {t0!r} {t1!r} {t2!r} {rss}\\n')\n"
    "sys.exit(rc)\n"
)

README_ALPHABETS = {
    "matching": {"letters": ["a", "b", "c", "d"], "independent": [["a", "b"], ["c", "d"]]},
    "k3": {"letters": ["a", "b", "c"], "independent": [["a", "b"], ["b", "c"], ["a", "c"]]},
    "p3": {"letters": ["a", "b", "c"], "independent": [["a", "b"], ["b", "c"]]},
}

# The README's CLI examples and the bytes it promises for each.
README_EXAMPLES = [
    (["nf", "ab~a"], b"<|a|b>\n"),
    (["nf", "--json", "ab~a"], b'{"reads": "", "center": "a", "writes": "b", "text": "<|a|b>"}\n'),
    (["eq", "a~b", "~ba"], b"EQUIVALENT\n"),
    (["eq", "a~a", "~aa"], b"DISTINGUISHED queue='' lhs= rhs=BOTTOM\n"),
    (["decide", "@matching"], b"EMBEDDABLE (matching): a->0/a b->0/b c->1/a d->1/b\n"),
    (["decide", "@k3"], b"NOT EMBEDDABLE: odd cycle a b c\n"),
    (["embed", "@p3", "abc"], b"(ab | baab)\n"),
    (["witness", "p2p3", "a", "~c", "~c~c"],
     b'{"kind": "p2p3", "x": [1, 1, 0], "y": [1, 1, 0], "lhs": "a~ca", "rhs": "aa~c", "verified": true}\n'),
]


class CliRunner:
    """Runs quemon in fresh processes and keeps what the children report."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = tracer
        self.import_s: list[float] = []
        self.main_s: list[float] = []
        self.process_s: list[float] = []
        self.peak_kb = 0

    def __call__(self, *argv: str) -> tuple[int, bytes]:
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=self.env,
                              capture_output=True, check=False)
        t3 = perf_counter()
        tail = proc.stderr.rstrip().rsplit(b"\n", 1)[-1].split()
        if tail[:1] != [b"@perfbench"]:
            raise RuntimeError(f"child reported no timings: {proc.stderr[-300:]!r}")
        c0, c1, c2 = (float(x) for x in tail[1:4])
        self.peak_kb = max(self.peak_kb, int(tail[4]))
        self.import_s.append(c1 - c0)
        self.main_s.append(c2 - c1)
        self.process_s.append(t3 - t0)
        self.tracer.add("cli.import", c0, c1)
        self.tracer.add("cli.main", c1, c2)
        return proc.returncode, proc.stdout

    def reset(self) -> None:
        self.import_s, self.main_s, self.process_s = [], [], []


def in_process(argv: list[str]) -> bytes:
    """stdout of quemon.cli.main run in this process."""
    import contextlib
    import io

    from quemon.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"in-process main exited {rc}")
    return buf.getvalue().encode()


def _cli_cold(rng: random.Random, workdir: Path, tracer: Tracer) -> Workload:
    lad = SPEC["cli-cold"]["ladders"]
    mix = SPEC["cli-cold"]["op_mix"]
    readme = {name: _write_alphabet(workdir, name, a) for name, a in README_ALPHABETS.items()}
    planted, files = {}, {}
    for i, cls in enumerate(gen.CLASSES):
        planted[cls] = gen.planted_alphabet(rng, 8 + 2 * i, cls)
        files[cls] = _write_alphabet(workdir, f"planted-{cls}", planted[cls])
    all_files = list(readme.values()) + list(files.values())
    _load_all(all_files, tracer)

    def text(w) -> str:
        return "".join(w)

    commands: list[tuple[str, list[str], bytes | None]] = []
    for i, (argv, want) in enumerate(README_EXAMPLES):
        argv = [readme[a[1:]] if a.startswith("@") else a for a in argv]
        commands.append((f"readme/{i}", argv, want))
    qsizes, tsizes = lad["queue_word"], lad["trace_word"]
    for i in range(mix["nf"]):
        n = qsizes[i % 3]
        w = gen.random_queue_word(rng, n) if i % 2 == 0 else gen.periodic_queue_word(rng, n)
        commands.append((f"nf/{i}", ["nf", text(w)], None))
    for i in range(mix["mul"]):
        n = qsizes[i % 3]
        commands.append((f"mul/{i}", ["mul", text(gen.random_queue_word(rng, n // 2)),
                                      text(gen.periodic_queue_word(rng, n // 2))], None))
    for i in range(mix["eq"]):
        n = qsizes[i % 3]
        w = gen.valid_on_empty(rng, n)
        # an extra write changes the result on the empty queue, so the
        # search for a separating queue stops at the empty queue
        other = gen.rewrite_scramble(rng, w, 2 * n) if i % 2 == 0 else w + ("a",)
        commands.append((f"eq/{i}", ["eq", text(w), text(other)], None))
    for i in range(mix["decide"]):
        commands.append((f"decide/{i}", ["decide", files[gen.CLASSES[i % 5]]], None))
    for i in range(mix["lexnf"]):
        cls = gen.CLASSES[(i + 2) % 5]
        w = gen.random_trace_word(rng, planted[cls]["letters"], tsizes[i % 3])
        commands.append((f"lexnf/{i}", ["lexnf", files[cls], text(w)], None))
    for i in range(mix["embed"]):
        cls = ("matching", "bipartite")[i % 2]
        w = gen.random_trace_word(rng, planted[cls]["letters"], tsizes[i % 3])
        commands.append((f"embed/{i}", ["embed", files[cls], text(w)], None))
    rows = battery.P2P3 + battery.NONCONJUGATED + battery.CONJUGATED + battery.P4
    kinds = (["p2p3"] * len(battery.P2P3) + ["nonconjugated"] * len(battery.NONCONJUGATED)
             + ["conjugated"] * len(battery.CONJUGATED) + ["p4"] * len(battery.P4))
    for i, j in enumerate(rng.sample(range(len(rows)), mix["witness"])):
        args = rows[j][:5] if kinds[j] == "conjugated" else rows[j]
        commands.append((f"witness/{i}", ["witness", kinds[j], *args], None))

    runner = CliRunner(Path(__file__).resolve().parent.parent, tracer)
    ops = []
    for key, argv, want in commands:
        size = sum(len(a) for a in argv)
        ops.append(Op(key, "cli.process", size, runner, tuple(argv),
                      lambda out, _, argv=argv, want=want: _check_cli(argv, out, want)))
    return Workload(_shuffled(rng, ops), all_files, cli=runner)


def _check_cli(argv: list[str], out: tuple[int, bytes], want: bytes | None) -> str | None:
    rc, stdout = out
    if rc != 0:
        return f"exit code {rc}"
    if want is not None and stdout != want:
        return "stdout differs from the README"
    return None if stdout == in_process(argv) else "stdout differs from quemon.cli.main in-process"


_BUILDERS = {
    "queue-long": _queue_long,
    "trace-embed": _trace_embed,
    "witness-battery": _witness_battery,
    "cli-cold": _cli_cold,
}
