"""Independence alphabets and the embeddability decision.

An independence alphabet is a finite set of letters together with an
irreflexive symmetric relation, viewed as an undirected graph.  The trace
monoid over it embeds into a direct product of two free monoids exactly
when either every letter has at most one independent partner, or the
letters with partners form a single connected component that is complete
bipartite.  ``decide_embeddable`` returns a recipe in the positive case
and a concrete witness substructure in the negative case.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import ParseError

if TYPE_CHECKING:
    from .words import Letter

# characters that the word and normal-form syntax reserve
_RESERVED = re.compile(r"[\s~|<>]")


class IndependenceAlphabet:
    """Letters in declaration order plus an irreflexive symmetric relation."""

    def __init__(
        self,
        letters: Iterable[Letter],
        independent: Iterable[Sequence[Letter]] = (),
    ) -> None:
        self.letters: tuple[Letter, ...] = tuple(letters)
        self._rank: dict[Letter, int] = {}
        for x in self.letters:
            if not isinstance(x, str) or not x:
                raise ParseError(f"letters must be nonempty strings, got {x!r}")
            if x in self._rank:
                raise ParseError(f"duplicate letter {x!r}")
            if _RESERVED.search(x):
                raise ParseError(f"letter {x!r} contains whitespace or one of ~ | < >")
            self._rank[x] = len(self._rank)
        # printed words join one-character letters without spaces, so a
        # longer letter they spell would read back as that word
        singles = {x for x in self.letters if len(x) == 1}
        if singles:
            for x in self.letters:
                if len(x) > 1 and singles.issuperset(x):
                    raise ParseError(f"letter {x!r} is spelled by one-character letters")
        edges: set[tuple[Letter, Letter]] = set()
        adj: dict[Letter, set[Letter]] = {x: set() for x in self.letters}
        for pair in independent:
            pair = tuple(pair)
            if len(pair) != 2:
                raise ParseError(f"independence pair must have two letters, got {pair!r}")
            a, b = pair
            for x in (a, b):
                if not isinstance(x, str) or x not in self._rank:
                    raise ParseError(f"unknown letter {x!r} in pair {pair!r}")
            if a == b:
                raise ParseError(f"self-pair ({a!r}, {b!r}) is not allowed")
            e = self._canonical(a, b)
            if e in edges:
                raise ParseError(f"duplicate pair ({a!r}, {b!r})")
            edges.add(e)
            adj[a].add(b)
            adj[b].add(a)
        self.edges: frozenset[tuple[Letter, Letter]] = frozenset(edges)
        self._adj = adj
        # each letter's neighbours in declaration order, sorted on first use
        self._neighbors: dict[Letter, tuple[Letter, ...]] = {}
        # the letters and edges never change, so their hash is computed once
        self._hash: int | None = None

    def _canonical(self, a: Letter, b: Letter) -> tuple[Letter, Letter]:
        if self._rank[a] <= self._rank[b]:
            return (a, b)
        return (b, a)

    def __contains__(self, x: Letter) -> bool:
        return x in self._rank

    def rank(self, x: Letter) -> int:
        return self._rank[x]

    def independent(self, a: Letter, b: Letter) -> bool:
        return a != b and b in self._adj.get(a, ())

    def neighbors(self, x: Letter) -> tuple[Letter, ...]:
        """Letters independent of x, in declaration order."""
        nbrs = self._neighbors.get(x)
        if nbrs is None:
            nbrs = self._neighbors[x] = tuple(sorted(self._adj[x], key=self._rank.__getitem__))
        return nbrs

    def degree(self, x: Letter) -> int:
        return len(self._adj[x])

    def __eq__(self, other: object) -> bool:
        if self is other:
            # words over one alphabet compare it on every product and
            # equivalence test; comparing the edges would cost O(|edges|)
            return True
        if not isinstance(other, IndependenceAlphabet):
            return NotImplemented
        return self.letters == other.letters and self.edges == other.edges

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.letters, self.edges))
        return h

    def __reduce__(self) -> tuple:
        # rebuilt without the cached tables: a string hash is only valid in
        # the process that computed it
        return (IndependenceAlphabet, (self.letters, tuple(self.edges)))

    def __repr__(self) -> str:
        pairs = ",".join(f"({a},{b})" for a, b in self.to_json()["independent"])
        return f"IndependenceAlphabet({''.join(self.letters)!r}, [{pairs}])"

    def to_json(self) -> dict:
        ordered = sorted(self.edges, key=lambda e: (self._rank[e[0]], self._rank[e[1]]))
        return {"letters": list(self.letters), "independent": [list(e) for e in ordered]}

    @classmethod
    def from_json(cls, obj: object) -> "IndependenceAlphabet":
        if not isinstance(obj, dict):
            raise ParseError("alphabet file must contain a JSON object")
        unknown = set(obj) - {"letters", "independent"}
        if unknown:
            raise ParseError(f"unknown keys in alphabet file: {sorted(unknown)}")
        letters = obj.get("letters")
        if not isinstance(letters, list):
            raise ParseError("'letters' must be a list")
        independent = obj.get("independent", [])
        if not isinstance(independent, list) or not all(isinstance(p, list) for p in independent):
            raise ParseError("'independent' must be a list of pairs")
        return cls(letters, independent)

    @classmethod
    def loads(cls, text: str) -> "IndependenceAlphabet":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, integers past the digit limit, deep nesting
            raise ParseError(f"invalid JSON: {exc}") from exc
        return cls.from_json(obj)

    @classmethod
    def load(cls, path: str) -> "IndependenceAlphabet":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"alphabet file is not UTF-8: {exc}") from exc
        return cls.loads(text)


# -- embeddability classification --------------------------------------------

class OddCycle(NamedTuple):
    """Closed walk of odd length; consecutive vertices are independent pairs.

    It starts at its least vertex by string order and goes on toward the
    smaller, by string order, of that vertex's two neighbours on the cycle.
    """

    vertices: tuple[Letter, ...]


class MissingPair(NamedTuple):
    """Two letters on opposite sides of the attempted bipartition with no edge."""

    pair: tuple[Letter, Letter]


Role = str  # 'a', 'b', or 'isolated'


class MatchingRecipe(NamedTuple):
    """Pairing for alphabets of maximum degree one.

    Maps each letter to (index, role); partners share an index, the letter
    declared first takes role 'a' and its partner role 'b'; letters without
    a partner get a fresh index and role 'isolated'.
    """

    pairing: Mapping[Letter, tuple[int, Role]]


class BipartiteRecipe(NamedTuple):
    """Parts of the unique nontrivial component plus the isolated letters."""

    part1: tuple[Letter, ...]
    part2: tuple[Letter, ...]
    isolated: tuple[Letter, ...]


class TwoNontrivialComponents(NamedTuple):
    """One edge from each of two distinct components that both have edges,
    in component order; the least letter of degree >= 2 is an end of one."""

    edges: tuple[tuple[Letter, Letter], tuple[Letter, Letter]]


class NotCompleteBipartite(NamedTuple):
    witness: Union[OddCycle, MissingPair]


class Embeddable(NamedTuple):
    recipe: Union[MatchingRecipe, BipartiteRecipe]


class NotEmbeddable(NamedTuple):
    reason: Union[TwoNontrivialComponents, NotCompleteBipartite]


Classification = Union[Embeddable, NotEmbeddable]


def decide_embeddable(g: IndependenceAlphabet) -> Classification:
    """Decide embeddability into a product of two free monoids.

    Embeddable when every degree is at most one (matching recipe), or when
    the letters of positive degree form one connected component that is
    complete bipartite (bipartite recipe).  Otherwise the classification
    carries a reason: two nontrivial components are reported in preference
    to a failed bipartiteness check.
    """
    if all(g.degree(x) <= 1 for x in g.letters):
        pairing: dict[Letter, tuple[int, Role]] = {}
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

    # one breadth-first 2-colouring from the least letter of each component
    # with an edge, neighbours in declaration order, keeping the first edge
    # whose ends get the same colour
    roots: list[Letter] = []
    color: dict[Letter, int] = {}
    parent: dict[Letter, Letter] = {}
    clash: tuple[Letter, Letter] | None = None
    for root in g.letters:
        if root in color or not g.degree(root):
            continue
        roots.append(root)
        color[root] = 0
        queue = [root]
        for x in queue:  # the loop reaches the letters appended below
            cx = color[x]
            for y in g.neighbors(x):
                cy = color.get(y)
                if cy is None:
                    color[y] = 1 - cx
                    parent[y] = x
                    queue.append(y)
                elif cy == cx and clash is None:
                    clash = (x, y)

    if len(roots) > 1:
        # the least letter x of degree >= 2 and its least partner, which
        # lie on a P3 or a triangle, and the least edge of the first other
        # component: its root and the root's least partner
        x = next(x for x in g.letters if g.degree(x) >= 2)
        home = x
        while home in parent:
            home = parent[home]
        other = roots[1] if home == roots[0] else roots[0]
        edges = ((x, g.neighbors(x)[0]), (other, g.neighbors(other)[0]))
        return NotEmbeddable(TwoNontrivialComponents(edges if home == roots[0] else edges[::-1]))

    if clash is not None:
        # equal colours put both ends at one depth, so climbing from both in
        # step meets at their lowest common ancestor
        left, right = [clash[0]], [clash[1]]
        while left[-1] != right[-1]:
            left.append(parent[left[-1]])
            right.append(parent[right[-1]])
        cycle = left + right[-2::-1]
        k = cycle.index(min(cycle))
        cycle = cycle[k:] + cycle[:k]
        if cycle[-1] < cycle[1]:
            cycle[1:] = cycle[:0:-1]
        return NotEmbeddable(NotCompleteBipartite(OddCycle(tuple(cycle))))

    parts: tuple[list[Letter], list[Letter], list[Letter]] = ([], [], [])
    for x in g.letters:
        parts[color.get(x, 2)].append(x)
    part0, part1, isolated = map(tuple, parts)
    # in a bipartite component a letter is independent of all of part1
    # exactly when its degree is |part1|
    for a in part0:
        if g.degree(a) != len(part1):
            b = next(b for b in part1 if not g.independent(a, b))
            return NotEmbeddable(NotCompleteBipartite(MissingPair((a, b))))
    if len(part1) < len(part0):
        part0, part1 = part1, part0
    return Embeddable(BipartiteRecipe(part0, part1, isolated))
