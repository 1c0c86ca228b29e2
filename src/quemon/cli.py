"""Command-line front end.

Exit codes: 0 on success, 1 when the output cannot be written (a closed
pipe), 2 on parse errors (including bad command lines), 3 on precondition
violations, 4 when `embed` is given a non-embeddable alphabet, 5 when a
computation stops at runtime: a witness equation would exceed its size cap
or fails its check, or an internal self-check fails.

`_build_parser` declares each command once, with its handler.  A handler
returns its JSON payload and its text line; `main` prints one of them, once,
after the handler has finished.

A quemon process runs one command, so this module imports at load time only
argparse, the exceptions and the queue parsing and formatting helpers.
Each command imports what it runs: alphabets, traces and embeddings for
`decide`, `traceeq`, `lexnf`, `embed` and `--alphabet`; the witness
builders only for `witness`; heapq only when `eq` searches for a queue;
json only when a payload is printed.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Sequence

from .errors import (
    CapExceededError,
    InternalError,
    NotEmbeddableError,
    ParseError,
    PreconditionError,
    VerificationFailedError,
)
from .queue import (
    BOTTOM,
    DEFAULT_ALPHABET,
    action,
    format_normal_form,
    format_state,
    format_word,
    multiply,
    normal_form,
    parse_queue_word,
    parse_word,
)

# kind -> (argument names, name of the builder in quemon.witness)
_WITNESS_KINDS = {
    "p2p3": ("UVW", "p2p3_witness"),
    "nonconjugated": ("UVWPQ", "nonconjugated_witness"),
    "conjugated": ("UVWGH", "conjugated_witness"),
    "p4": ("TUVW", "p4_witness"),
}


def _letters(ns: argparse.Namespace) -> tuple[str, ...]:
    if ns.alphabet:
        from .alphabet import IndependenceAlphabet

        return IndependenceAlphabet.load(ns.alphabet).letters
    return DEFAULT_ALPHABET


def _nf_payload(nf) -> dict:
    return {
        "reads": format_word(nf.reads),
        "center": format_word(nf.center),
        "writes": format_word(nf.writes),
        "text": format_normal_form(nf),
    }


def _describe(record) -> tuple[object, str]:
    """JSON payload and text line for a decide verdict or for the reason an
    alphabet is not embeddable.

    The one place the CLI looks inside the verdict records.
    """
    from .alphabet import (
        Embeddable,
        MatchingRecipe,
        MissingPair,
        NotCompleteBipartite,
        NotEmbeddable,
        OddCycle,
    )

    if isinstance(record, Embeddable):
        recipe = record.recipe
        if isinstance(recipe, MatchingRecipe):
            pairing = recipe.pairing.items()
            payload = {
                "embeddable": True,
                "kind": "matching",
                "pairing": {x: {"index": i, "role": role} for x, (i, role) in pairing},
            }
            return payload, "EMBEDDABLE (matching): " + " ".join(
                f"{x}->{i}/{role}" for x, (i, role) in pairing
            )
        payload = {
            "embeddable": True,
            "kind": "bipartite",
            "part1": list(recipe.part1),
            "part2": list(recipe.part2),
            "isolated": list(recipe.isolated),
        }
        return payload, (
            "EMBEDDABLE (complete bipartite): "
            f"C1={{{','.join(recipe.part1)}}} "
            f"C2={{{','.join(recipe.part2)}}} "
            f"isolated={{{','.join(recipe.isolated)}}}"
        )
    if isinstance(record, NotEmbeddable):
        payload, text = _describe(record.reason)
        return {"embeddable": False, "reason": payload}, "NOT EMBEDDABLE: " + text
    if isinstance(record, NotCompleteBipartite):
        record = record.witness
    if isinstance(record, OddCycle):
        payload = {"kind": "odd-cycle", "vertices": list(record.vertices)}
        return payload, "odd cycle " + " ".join(record.vertices)
    if isinstance(record, MissingPair):
        payload = {"kind": "missing-pair", "pair": list(record.pair)}
        return payload, "missing pair " + " ".join(record.pair)
    # the one reason left: TwoNontrivialComponents
    payload = {
        "kind": "two-nontrivial-components",
        "edges": [list(edge) for edge in record.edges],
    }
    return payload, "two nontrivial components " + ", ".join(
        "-".join(edge) for edge in record.edges
    )


def _cmd_decide(ns: argparse.Namespace) -> tuple[object, str]:
    from .alphabet import IndependenceAlphabet, decide_embeddable

    return _describe(decide_embeddable(IndependenceAlphabet.load(ns.file)))


def _cmd_nf(ns: argparse.Namespace) -> tuple[object, str]:
    nf = normal_form(parse_queue_word(ns.word, _letters(ns)))
    return _nf_payload(nf), format_normal_form(nf)


def _cmd_mul(ns: argparse.Namespace) -> tuple[object, str]:
    letters = _letters(ns)
    x = normal_form(parse_queue_word(ns.word1, letters))
    y = normal_form(parse_queue_word(ns.word2, letters))
    nf = multiply(x, y)
    return _nf_payload(nf), format_normal_form(nf)


def _image(nf, neg, q):
    """What a word with normal form nf = <r|c|w> and neg = rc makes of the
    queue q: (q.c)[|rc|:].w when q.c starts with rc, and BOTTOM otherwise."""
    qc = q + nf.center
    return qc[len(neg):] + nf.writes if qc[: len(neg)] == neg else BOTTOM


def _distinguishing_queue(nfs, max_len: int, alphabet: Sequence[str] = DEFAULT_ALPHABET):
    """Shortest queue (by length, then letter order) on which the words with
    normal forms nfs = (nf u, nf v) act differently.

    The queue's letters are those of u and v plus the least letter of the
    alphabet that neither uses: such a letter blocks every read, so it
    separates a word that reads what it wrote (a~a) from the empty word.
    Only queues that agree with the reads of u or of v are tried: writes go
    to the back, so the i-th read of u takes q[i] while i < |q|, and on a
    queue that differs from neg u and from neg v within their common length
    both words end at BOTTOM.  At length n that leaves, for each read word
    s, the prefix s[:n] or the cone s.A^(n-|s|), merged in letter order.
    Inside the cone of s the word reading s is defined on every queue, and
    the other word, at a length up to its number of reads, only on the
    prefix of its reads; so the first other queue of the cone separates.
    The search thus tries at most two distinct queues per length up to M
    (defined below): each by _image at C speed, one held at a time
    whatever max_len is.  Where the two read words share a prefix, the
    merge yields it twice, and the second copy is skipped.

    The search starts at the shorter of the read blocks r of the two normal
    forms <r|c|w>: a queue shorter than r is emptied by those reads before
    the word writes anything, so below both read blocks both words end at
    BOTTOM.

    The search stops at length min(max_len, M), M = max(|neg u|, |neg v|):
    a separating queue, if there is one, has length <= M.  Proof: with
    normal form <r|c|w>, u maps q to (q.c)[|neg u|:].w when q.c starts with
    neg u = rc, and to BOTTOM otherwise.  So a queue of length >= M is in
    the domain of u exactly when it lies in the cone neg u.A*, and u maps
    neg u.z to z.pos u.  Let q, longer than M, separate u and v.  If only u
    is defined on q, the prefix of q of length M separates them.  If both
    are, say neg v = neg u.y.  With y nonempty and two or more letters,
    some y' != y has the length of y, and the queue neg u.y', of length M,
    separates them: u is defined on it and v is not.  Otherwise y and z
    commute, as y is empty or both are powers of the one letter, so u
    maps neg v.z to z.y.pos u and v maps it to z.pos v.  These differ
    exactly when y.pos u and pos v do, that is, when the queue neg v, of
    length M, separates them.
    """
    import heapq

    reads = tuple(nf.neg() for nf in nfs)
    used = set().union(*reads, *(nf.pos() for nf in nfs))
    extra = min((x for x in alphabet if x not in used), default=None)
    letters = sorted(used if extra is None else used | {extra})
    bound = min(max_len, max(map(len, reads)))
    for n in range(min(len(nf.reads) for nf in nfs), bound + 1):
        # a bound method per cone: a generator over s would see only the last s
        candidates = [
            (s[:n],) if n <= len(s)
            else map(s.__add__, itertools.product(letters, repeat=n - len(s)))
            for s in reads
        ]
        for q, _ in itertools.groupby(heapq.merge(*candidates)):
            if _image(nfs[0], reads[0], q) != _image(nfs[1], reads[1], q):
                return q
    return None


def _cmd_eq(ns: argparse.Namespace) -> tuple[object, str]:
    if ns.max_len < 0:
        raise ParseError(f"--max-len must be nonnegative, got {ns.max_len}")
    letters = _letters(ns)
    u = parse_queue_word(ns.word1, letters)
    v = parse_queue_word(ns.word2, letters)
    nfs = normal_form(u), normal_form(v)
    if nfs[0] == nfs[1]:
        return {"equivalent": True}, "EQUIVALENT"
    queue = _distinguishing_queue(nfs, ns.max_len, letters)
    if queue is None:
        text = f"DISTINGUISHED: no separating queue up to length {ns.max_len}"
        return {"equivalent": False, "queue": None}, text
    shown = format_word(queue)
    lhs, rhs = (format_state(_image(nf, nf.neg(), queue)) for nf in nfs)
    payload = {"equivalent": False, "queue": shown, "lhs": lhs, "rhs": rhs}
    return payload, f"DISTINGUISHED queue='{shown}' lhs={lhs} rhs={rhs}"


def _cmd_action(ns: argparse.Namespace) -> tuple[object, str]:
    letters = _letters(ns)
    queue = parse_word(ns.queue, letters)
    word = parse_queue_word(ns.word, letters)
    state = format_state(action(queue, word))
    return {"state": state}, state


def _trace_words(ns: argparse.Namespace, *texts: str) -> tuple:
    """The alphabet in ns.file, then a TraceWord over it for each text."""
    from .alphabet import IndependenceAlphabet
    from .trace import TraceWord

    g = IndependenceAlphabet.load(ns.file)
    return g, *(TraceWord(g, parse_word(text, g.letters)) for text in texts)


def _cmd_traceeq(ns: argparse.Namespace) -> tuple[object, str]:
    from .trace import trace_equivalent

    _, u, v = _trace_words(ns, ns.word1, ns.word2)
    eq = trace_equivalent(u, v)
    return {"equivalent": eq}, "EQUIVALENT" if eq else "NOT EQUIVALENT"


def _cmd_lexnf(ns: argparse.Namespace) -> tuple[object, str]:
    from .trace import lex_normal_form

    _, u = _trace_words(ns, ns.word)
    nf = format_word(lex_normal_form(u).word)
    return {"word": nf}, nf


def _cmd_embed(ns: argparse.Namespace) -> tuple[object, str]:
    from .embed import embed_to_two_free

    g, u = _trace_words(ns, ns.word)
    first, second = map(format_word, embed_to_two_free(g, u))
    text = f"({first} | {second})"
    return {"first": first, "second": second, "text": text}, text


def _cmd_witness(ns: argparse.Namespace) -> tuple[object, None]:
    """The report of the builder for ns.kind; T, U, V, W are queue words,
    P, Q, G, H plain words, and G, H form a ConjugacyDecomposition."""
    from . import witness
    from .words import ConjugacyDecomposition

    names, builder = _WITNESS_KINDS[ns.kind]
    if len(ns.args) != len(names):
        raise ParseError(
            f"witness {ns.kind} takes {len(names)} arguments "
            f"({' '.join(names)}), got {len(ns.args)}"
        )
    letters = _letters(ns)
    args = [
        parse_queue_word(text, letters) if name in "TUVW" else parse_word(text, letters)
        for name, text in zip(names, ns.args)
    ]
    if names.endswith("GH"):
        args[3:] = [ConjugacyDecomposition(*args[3:])]
    return getattr(witness, builder)(*args).to_json(), None


# help of the positionals that have one, by dest
_POSITIONAL_HELP = {
    "file": "independence alphabet JSON",
    "queue": "initial queue contents (may be empty)",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quemon",
        description="Queue monoid computations, trace monoids, and embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, handler, help_text: str, *positionals: str, letters: bool = False
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if letters:
            p.add_argument(
                "--alphabet",
                metavar="FILE",
                help="independence alphabet JSON declaring the letters",
            )
        for dest in positionals:
            p.add_argument(dest, help=_POSITIONAL_HELP.get(dest))
        return p

    add("decide", _cmd_decide, "decide embeddability of an independence alphabet", "file")
    add("nf", _cmd_nf, "normal form of a queue word", "word", letters=True)
    add("mul", _cmd_mul, "normal form of the product of two queue words", "word1", "word2",
        letters=True)
    p = add("eq", _cmd_eq, "decide equivalence of two queue words", "word1", "word2", letters=True)
    p.add_argument(
        "--max-len",
        type=int,
        default=8,
        metavar="N",
        help="bound for the distinguishing-queue search (default 8); it stops "
        "earlier, at M, where M is the larger number of reads in the two words",
    )
    add("action", _cmd_action, "apply a queue word to a queue state", "queue", "word",
        letters=True)
    add("traceeq", _cmd_traceeq, "decide trace equivalence over an independence alphabet",
        "file", "word1", "word2")
    add("lexnf", _cmd_lexnf, "lexicographic trace normal form", "file", "word")
    add("embed", _cmd_embed, "embed a word into a product of two free monoids", "file", "word")
    p = add("witness", _cmd_witness, "generate a verified witness equation (JSON)", letters=True)
    p.set_defaults(json=True)  # the report is printed as JSON only
    p.add_argument("kind", choices=sorted(_WITNESS_KINDS))
    p.add_argument("args", nargs="*", help="queue words and root words per kind")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        payload, text = ns.run(ns)
    except NotEmbeddableError as exc:
        print(f"not embeddable: {_describe(exc.args[0])[1]}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, VerificationFailedError, InternalError) as exc:
        print(f"runtime error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 5
    if ns.json:
        import json

        text = json.dumps(payload, sort_keys=False)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        # what is left in the buffer would fail again, with a traceback
        # line, when the interpreter flushes stdout at exit
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass  # an in-memory stdout has no descriptor and no exit flush
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
