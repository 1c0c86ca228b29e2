"""Package surface: names resolved on first use, what each command loads,
and the value semantics of the result records."""

import ast
import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quemon
from quemon import (
    BipartiteRecipe,
    ConjugacyDecomposition,
    Embeddable,
    EmbeddingReport,
    EmptyWordError,
    IndependenceAlphabet,
    MatchingRecipe,
    MissingPair,
    NotCompleteBipartite,
    NotEmbeddable,
    NotPrimitiveError,
    OddCycle,
    PreconditionError,
    ProductWord,
    TraceWord,
    TwoNontrivialComponents,
    WitnessReport,
)

# Runs in a fresh interpreter: imports quemon, then quemon.cli, runs main
# on its arguments, and prints (exit code, quemon modules loaded by the bare
# package import, every module loaded since start-up) as the last line.
CHILD = (
    "import sys\n"
    "startup = set(sys.modules)\n"
    "import quemon\n"
    "bare = sorted(m for m in sys.modules if m.startswith('quemon.'))\n"
    "import quemon.cli\n"
    "rc = quemon.cli.main(sys.argv[1:])\n"
    "print(repr((rc, bare, sorted(set(sys.modules) - startup))))\n"
)


def run_fresh(*argv):
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_bare_import_and_nf_load_only_the_queue_layers():
    rc, bare, loaded = run_fresh("nf", "ab~a")
    assert (rc, bare) == (0, [])
    for name in ("dataclasses", "fractions", "json", "quemon.alphabet",
                 "quemon.trace", "quemon.embed", "quemon.witness"):
        assert name not in loaded, name
    assert {"quemon.errors", "quemon.words", "quemon.queue", "quemon.cli"} <= set(loaded)


def test_decide_loads_no_witness_code(tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps({"letters": ["a", "b", "c"],
                                "independent": [["a", "b"], ["b", "c"], ["a", "c"]]}))
    rc, _, loaded = run_fresh("decide", str(path))
    assert rc == 0
    assert "quemon.alphabet" in loaded
    for name in ("dataclasses", "fractions", "quemon.witness", "quemon.embed"):
        assert name not in loaded, name


def test_witness_loads_no_alphabet_code():
    rc, _, loaded = run_fresh("witness", "p2p3", "a", "~c", "~c~c")
    assert rc == 0
    assert "quemon.witness" in loaded
    for name in ("fractions", "quemon.alphabet", "quemon.trace", "quemon.embed"):
        assert name not in loaded, name


def test_the_trace_half_loads_no_queue_code():
    code = (
        "import sys\n"
        "from quemon.alphabet import IndependenceAlphabet, decide_embeddable\n"
        "from quemon.trace import TraceWord, lex_normal_form\n"
        "from quemon.embed import embed_to_two_free\n"
        "g = IndependenceAlphabet('abc', [('a', 'b')])\n"
        "decide_embeddable(g)\n"
        "u = lex_normal_form(TraceWord(g, ('b', 'c', 'a')))\n"
        "embed_to_two_free(g, u)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'quemon'))\n"
    )
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert ast.literal_eval(out) == ["quemon", "quemon.alphabet", "quemon.embed",
                                     "quemon.errors", "quemon.trace"]


# -- lazy names ----------------------------------------------------------------

def test_every_exported_name_is_the_submodule_object():
    listed = [name for names in quemon._EXPORTS.values() for name in names]
    assert quemon.__all__ == listed
    assert len(set(listed)) == len(listed)
    for module, names in quemon._EXPORTS.items():
        sub = importlib.import_module(f"quemon.{module}")
        for name in names:
            assert getattr(quemon, name) is getattr(sub, name), name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from quemon import *", namespace)
    assert set(quemon.__all__) <= set(namespace)
    assert set(quemon.__all__) <= set(dir(quemon))
    assert "__version__" in dir(quemon)
    with pytest.raises(AttributeError):
        quemon.no_such_name
    for oracle in ("mu", "rewrite_nf_oracle", "bfs_class_oracle",
                   "generalized_shift", "bfs_trace_class", "eta_matching",
                   "bipartite_embedding", "dependence_stacks", "binary_encode",
                   "PRODUCT_IDENTITY", "overlap_gq", "sandwich_form",
                   "clique_projection", "binary_decode", "write_actions",
                   "read_actions", "parse_normal_form", "is_p4_free", "is_read",
                   "connected_components", "is_complete_bipartite"):
        assert not hasattr(quemon, oracle), oracle


def test_submodules_resolve_as_attributes_after_a_bare_import():
    src = os.path.dirname(os.path.dirname(quemon.__file__))
    code = "import quemon; print(quemon.words.overlap is quemon.overlap)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "True\n"


# -- what the package keeps ---------------------------------------------------

SRC = Path(quemon.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _top_level_statements():
    return [stmt for path in sorted(SRC.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def _names_used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_in_src_is_exported_or_used():
    used = [(stmt, _names_used(stmt)) for stmt in _top_level_statements()]
    unused = []
    for stmt, _ in used:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name in quemon.__all__ or (name.startswith("__") and name.endswith("__")):
            continue
        if not any(name in names for other, names in used if other is not stmt):
            unused.append(name)
    assert unused == []


def _readme_library_section():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    return text[start:text.index("\n## ", start + 1)]


# identifiers the Library section quotes as prose: a type it compares
# records with, letters and exponents, a part of a triple, a report field
PROSE_NAMES = {"NamedTuple", "a", "x", "z", "u2", "words_checked"}


def test_all_is_exactly_the_api_the_readme_documents():
    section = _readme_library_section()
    quoted = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert set(quemon.__all__) <= quoted, sorted(set(quemon.__all__) - quoted)
    # a name the README still quotes after the code dropped or hid it
    stale = quoted - set(quemon.__all__) - set(quemon._EXPORTS) - PROSE_NAMES
    assert stale == set(), sorted(stale)


def test_every_top_level_import_in_src_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


# -- records -------------------------------------------------------------------

AB = IndependenceAlphabet(("a", "b"), [("a", "b")])
CUT = MissingPair(("a", "d"))
BIPARTITE = BipartiteRecipe(("a",), ("b", "c"), ("d",))

# Every record with the repr it must keep: the CLI falls back to str() of a
# reason, and outputs are compared and hashed by their reprs.
RECORDS = [
    (OddCycle(("a", "b", "c")), "OddCycle(vertices=('a', 'b', 'c'))"),
    (CUT, "MissingPair(pair=('a', 'd'))"),
    (MatchingRecipe({"a": (0, "a"), "b": (0, "b")}),
     "MatchingRecipe(pairing={'a': (0, 'a'), 'b': (0, 'b')})"),
    (BIPARTITE, "BipartiteRecipe(part1=('a',), part2=('b', 'c'), isolated=('d',))"),
    (TwoNontrivialComponents((("a", "b"), ("c", "d"))),
     "TwoNontrivialComponents(edges=(('a', 'b'), ('c', 'd')))"),
    (NotCompleteBipartite(CUT), "NotCompleteBipartite(witness=MissingPair(pair=('a', 'd')))"),
    (Embeddable(BIPARTITE),
     "Embeddable(recipe=BipartiteRecipe(part1=('a',), part2=('b', 'c'), isolated=('d',)))"),
    (NotEmbeddable(NotCompleteBipartite(CUT)),
     "NotEmbeddable(reason=NotCompleteBipartite(witness=MissingPair(pair=('a', 'd'))))"),
    (ProductWord(("a",), ("b", "b")), "ProductWord(first=('a',), second=('b', 'b'))"),
    (EmbeddingReport(False, 7, 3, (("a", "b"), ("b", "a")), "equal images but inequivalent words"),
     "EmbeddingReport(ok=False, words_checked=7, classes=3, "
     "counterexample=(('a', 'b'), ('b', 'a')), detail='equal images but inequivalent words')"),
    (TraceWord(AB, ("a", "b")),
     "TraceWord(alphabet=IndependenceAlphabet('ab', [(a,b)]), word=('a', 'b'))"),
    (ConjugacyDecomposition(("a",), ("b",)), "ConjugacyDecomposition(g=('a',), h=('b',))"),
    (WitnessReport("p4", (1, 1, 1, 1, 1), None, ("a", "~b"), ("~b", "a"), True),
     "WitnessReport(kind='p4', x=(1, 1, 1, 1, 1), y=None, lhs=('a', '~b'), "
     "rhs=('~b', 'a'), verified=True)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_equality_and_immutability(record, text):
    assert repr(record) == text
    twin = copy.deepcopy(record)
    assert twin == record and not (twin != record)
    assert pickle.loads(pickle.dumps(record)) == record
    if not isinstance(record, MatchingRecipe):  # its pairing is a dict
        assert hash(twin) == hash(record)
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == text


def test_validating_records_compare_by_fields_only():
    assert TraceWord(AB, ("a",)) != TraceWord(AB, ("b",))
    assert TraceWord(AB, ("a",)) != ("a",)
    assert len(TraceWord(AB, ("a", "b", "a"))) == 3
    assert ConjugacyDecomposition((), ("a", "b")) != ConjugacyDecomposition(("a",), ("b",))
    assert ConjugacyDecomposition(("a",), ("b",)).q == ("b", "a")
    assert ConjugacyDecomposition(("a",), ("b",)) == (("a",), ("b",))
    with pytest.raises(AttributeError):
        del TraceWord(AB, ()).word


def test_validating_records_reject_bad_arguments():
    with pytest.raises(PreconditionError, match="'c'"):
        TraceWord(AB, ("a", "c"))
    with pytest.raises(EmptyWordError):
        ConjugacyDecomposition(("a",), ())
    with pytest.raises(NotPrimitiveError):
        ConjugacyDecomposition(("a",), ("a",))
    with pytest.raises(EmptyWordError):
        ConjugacyDecomposition(("a",), ("b",))._replace(h=())
