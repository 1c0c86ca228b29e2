"""Queue monoid computations, trace monoids, and embeddings into free products.

The package has two halves.  The queue half is combinatorics on plain
words (`words`: overlaps, primitive roots, conjugacy), the queue monoid
itself (`queue`: semantics, normal forms, closed-form multiplication), and
verified witness equations (`witness`).  The trace half is independence
alphabets and the embeddability decision (`alphabet`), their trace monoids
(`trace`), and explicit embeddings (`embed`).  Both import `errors`, neither
imports the other, and they meet only in `cli`.

`import quemon` loads no submodule.  Each public name below is imported
from its submodule on first access (PEP 562) and then cached here, so a
program pays only for the layers it uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "alphabet": (
        "BipartiteRecipe",
        "Embeddable",
        "IndependenceAlphabet",
        "MatchingRecipe",
        "MissingPair",
        "NotCompleteBipartite",
        "NotEmbeddable",
        "OddCycle",
        "TwoNontrivialComponents",
        "decide_embeddable",
    ),
    "embed": (
        "EmbeddingReport",
        "ProductWord",
        "embed_to_two_free",
        "letter_images",
        "verify_embedding_bounded",
    ),
    "errors": (
        "AlphabetMismatchError",
        "CapExceededError",
        "EmptyWordError",
        "InternalError",
        "NotEmbeddableError",
        "NotPrimitiveError",
        "ParseError",
        "PreconditionError",
        "RecipeMismatchError",
        "VerificationFailedError",
    ),
    "queue": (
        "BOTTOM",
        "DEFAULT_ALPHABET",
        "NF_IDENTITY",
        "QueueNormalForm",
        "action",
        "equivalent",
        "format_normal_form",
        "format_state",
        "format_word",
        "multiply",
        "nf_power",
        "normal_form",
        "parse_queue_word",
        "parse_word",
        "power_mu",
    ),
    "trace": (
        "TraceWord",
        "lex_normal_form",
        "trace_equivalent",
    ),
    "witness": (
        "WitnessReport",
        "conjugated_witness",
        "nonconjugated_witness",
        "p2p3_witness",
        "p4_witness",
    ),
    "words": (
        "ConjugacyDecomposition",
        "conjugacy_decomposition",
        "is_primitive",
        "overlap",
        "power_exponent",
        "primitive_root",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # a submodule, as `quemon.queue` after `import quemon`
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
