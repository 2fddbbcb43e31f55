"""Permutation algebra on the point set {1, ..., k}.

Everything downstream (Weingarten values, unitary entry moments, trace-moment
expansions) manipulates permutations of small degree, so this module keeps one
concrete representation: one-line notation over 1-based points, with
``images[x - 1] == p(x)``.

Composition convention, fixed package-wide: ``(p * q)(x) == p(q(x))``, i.e. the
right factor acts first.  Products written as words, such as transposition
factorizations ``(s_1 t_1) ... (s_r t_r)``, are evaluated with the same rule:
the rightmost factor is applied first.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

# Young subgroups and their products are memoised, and the cycle types of
# all of S_k tabulated, up to this degree: it covers every word of the census orders
# in ``exact_moments``, and S_6 has 720 elements.  Larger groups come from
# long entry-moment words, whose census is memoised per word anyway, and
# S_8 alone would keep 40320 tuples alive.
MEMO_DEGREE = 6


def compose_images(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """One-line images of p after q, i.e. x -> p(q(x)).  No validation."""
    return tuple([p[y - 1] for y in q])


def invert_images(p: Sequence[int]) -> tuple[int, ...]:
    """One-line images of the inverse.  No validation."""
    out = [0] * len(p)
    for x, y in enumerate(p, 1):
        out[y - 1] = x
    return tuple(out)


def cycle_type_of_product(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of p * q (q acts first), without forming the product.
    No validation."""
    seen = [False] * (len(q) + 1)
    lengths = []
    for start in range(1, len(q) + 1):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            size += 1
            x = p[q[x - 1] - 1]
        lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def composites(ps: Iterable[Sequence[int]], q: Sequence[int]) -> list[tuple[int, ...]]:
    """The images of p * q (q acts first) for each p in ``ps``, by one item
    lookup compiled for q.  No validation."""
    if len(q) == 1:
        return [tuple(p) for p in ps]
    return list(map(itemgetter(*[y - 1 for y in q]), ps))


def cycle_types_of_products(ps: Sequence[Sequence[int]], q: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """The cycle type of p * q (q acts first) for each p in ``ps``, in
    order, as an iterable read once.  No validation.

    Up to degree ``MEMO_DEGREE`` the products are formed by one item lookup
    compiled for q, as in ``composites``, and their types read off
    ``_cycle_type_table``; beyond it each product's cycles are walked.
    """
    k = len(q)
    if k > MEMO_DEGREE:
        return [cycle_type_of_product(p, q) for p in ps]
    if k == 1:
        return [(1,)] * len(ps)
    return map(_cycle_type_table(k).__getitem__, map(itemgetter(*[y - 1 for y in q]), ps))


@lru_cache(maxsize=None)
def _cycle_type_table(k: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """images -> cycle type over all of S_k; built once per degree."""
    identity = range(1, k + 1)
    return {
        images: cycle_type_of_product(images, identity)
        for images in itertools.permutations(identity)
    }


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., k} stored as the image tuple (p(1), ..., p(k)).

    >>> p = Permutation((2, 1, 3))
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    >>> str(p)
    '(1 2)'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.images)
        if k < 1:
            raise ValueError("degree must be at least 1")
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValueError(f"not a bijection of 1..{k}: {self.images!r}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Product of the given cycles, rightmost cycle applied first.

        >>> Permutation.from_cycles(4, [(1, 2), (3, 4)]).images
        (2, 1, 4, 3)
        """
        result = cls.identity(k)
        for cycle in cycles:
            images = list(range(1, k + 1))
            for pos, point in enumerate(cycle):
                if not 1 <= point <= k:
                    raise ValueError(f"cycle point {point} outside 1..{k}")
                images[point - 1] = cycle[(pos + 1) % len(cycle)]
            if sorted(images) != list(range(1, k + 1)):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            result = result * cls(tuple(images))
        return result

    @classmethod
    def from_cycle_string(cls, text: str, k: int) -> "Permutation":
        """Parse cycle notation such as ``(1 2)(3 4)``: parenthesised groups of
        points, split by blanks or commas, with only blanks between and around
        the groups.  ``id``, ``()`` or blank text parse to the identity."""
        if text.strip() == "id":
            return cls.identity(k)
        if not re.fullmatch(r"(\s*\([^()]*\))*\s*", text):
            raise ValueError(f"malformed cycle notation: {text!r}")
        try:
            cycles = [[int(tok) for tok in body.replace(",", " ").split()]
                      for body in re.findall(r"\(([^()]*)\)", text)]
        except ValueError as exc:
            raise ValueError(f"malformed cycle notation: {text!r}") from exc
        return cls.from_cycles(k, cycles)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.degree:
            raise ValueError(f"point {x} outside 1..{self.degree}")
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with the right factor acting first: (p * q)(x) = p(q(x))."""
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation(compose_images(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(invert_images(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its smallest point, fixed points
        included, ordered by smallest point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cycle.append(x)
                x = self(x)
            out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths sorted descending, fixed points included."""
        return cycle_type_of_product(self.images, range(1, self.degree + 1))

    def transposition_distance(self) -> int:
        """Minimal number of transpositions multiplying to this permutation,
        equal to degree minus number of cycles (fixed points counted)."""
        return self.degree - len(self.cycle_type())

    def __str__(self) -> str:
        moved = [c for c in self.cycles() if len(c) > 1]
        if not moved:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved)


def all_permutations(k: int) -> Iterator[Permutation]:
    """All of S_k in lexicographic image order."""
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation(images)


def enumerate_sk0(k: int) -> Iterator[Permutation]:
    """The (k-2)! permutations of degree k fixing both endpoints 1 and k, in
    lexicographic image order.

    >>> [str(p) for p in enumerate_sk0(4)]
    ['id', '(2 3)']
    """
    if k < 2:
        raise ValueError("endpoint-fixing subgroup needs degree >= 2")
    for images in young_subgroup_images((0,) + (1,) * (k - 2) + (-1,)):
        yield Permutation(images)


def _positions(labels: Sequence) -> dict:
    """label -> the positions (1-based, ascending) holding it."""
    positions: dict = {}
    for pos, v in enumerate(labels, 1):
        positions.setdefault(v, []).append(pos)
    return positions


def blocking(labels: Iterable) -> tuple[int, ...]:
    """``labels`` renamed 0, 1, ... in order of first appearance: the same
    blocks of positions under names that depend on nothing else."""
    names: dict = {}
    return tuple([names.setdefault(v, len(names)) for v in labels])


def young_subgroup_images(
    labels: Sequence, fine: Sequence | None = None
) -> tuple[tuple[int, ...], ...]:
    """Every permutation p (as image tuple) with labels[p(m)] == labels[m]:
    the Young subgroup of ``labels``, which permutes each block of positions
    with equal labels among itself.  A labelling with a single block gives
    S_k in lexicographic image order.

    With ``fine`` labels, only the p increasing on each block of positions
    with equal fine labels: one p per left coset p W, where W is the
    subgroup that preserves both labellings.

    The result depends only on the blocks, not on the label values, and is
    memoised per pair of blockings up to degree ``MEMO_DEGREE``, so the
    tuple is shared between callers; larger degrees are built afresh.

    >>> young_subgroup_images((1, 2, 1))
    ((1, 2, 3), (3, 2, 1))
    >>> young_subgroup_images((1, 1, 1), fine=(1, 2, 2))
    ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    """
    return blocked_young_subgroup(blocking(labels), None if fine is None else blocking(fine))


def blocked_young_subgroup(
    labels: tuple[int, ...], fine: tuple[int, ...] | None = None
) -> tuple[tuple[int, ...], ...]:
    """``young_subgroup_images`` of labellings already renamed by
    ``blocking``, which skips renaming them again: memoised up to degree
    ``MEMO_DEGREE``, built afresh above it."""
    if len(labels) > MEMO_DEGREE:
        return _young_subgroup.__wrapped__(labels, fine)
    return _young_subgroup(labels, fine)


@lru_cache(maxsize=None)
def _young_subgroup(
    labels: tuple[int, ...], fine: tuple[int, ...] | None
) -> tuple[tuple[int, ...], ...]:
    """``young_subgroup_images`` of labellings renamed by ``blocking``."""
    k = len(labels)
    identity = tuple(range(1, k + 1))
    group = [identity]
    # the last block first, so that the first block varies slowest
    for block in reversed(_positions(labels).values()):
        if len(block) == 1:
            continue
        if fine is None:
            arrangements = itertools.permutations(block)
        else:
            # one p per distinct order of the block's fine labels: the j-th
            # position of the block in the order of its fine labels goes to
            # the j-th slot in the order of the labels the order gives them
            marks = [fine[pos - 1] for pos in block]
            by_mark = sorted(range(len(block)), key=marks.__getitem__)
            arrangements = []
            for order in dict.fromkeys(itertools.permutations(marks)):
                targets = [0] * len(block)
                for src, slot in zip(by_mark, sorted(range(len(block)), key=order.__getitem__)):
                    targets[src] = block[slot]
                arrangements.append(tuple(targets))
        # each arrangement as the images of all k points: the block's
        # positions read its targets, appended after the identity
        spliced = list(range(k))
        for j, pos in enumerate(block):
            spliced[pos - 1] = k + j
        moves = list(map(itemgetter(*spliced), map(identity.__add__, arrangements)))
        # the blocks are disjoint, so each move commutes with the group so far
        group = [p for move in moves for p in composites(group, move)]
    return tuple(group)


def young_products(
    labels: Sequence, other: Sequence
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(products, |Y n Z|): the images of z * y (y acts first) for the Young
    subgroups Y of ``labels`` and Z of ``other``, each element of ZY once;
    every element of ZY is z * y for |Y n Z| pairs (z, y).

    ZY is the union of the cosets Z y over one y per right coset
    (Y n Z) y in Y: the inverses of the left coset representatives that
    ``young_subgroup_images`` gives with the pairs of labels as fine labels.
    Memoised per pair of labellings and per pair of blockings up to degree
    ``MEMO_DEGREE``, like the subgroups, so the tuple is shared between
    callers.

    >>> young_products((1, 1, 2), (1, 2, 2))
    (((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2)), 1)
    """
    if len(labels) > MEMO_DEGREE:
        return _young_products.__wrapped__(blocking(labels), blocking(other))
    return _labelled_products(tuple(labels), tuple(other))


@lru_cache(maxsize=None)
def _labelled_products(
    labels: tuple, other: tuple
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``young_products`` memoised per pair of labellings as given, so a
    repeated call skips renaming them to blockings."""
    return _young_products(blocking(labels), blocking(other))


@lru_cache(maxsize=None)
def _young_products(
    labels: tuple[int, ...], other: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """``young_products`` of labellings renamed by ``blocking``."""
    pairs = blocking(zip(labels, other))
    zs = blocked_young_subgroup(other)
    products: list[tuple[int, ...]] = []
    for rep in blocked_young_subgroup(labels, pairs):
        products += composites(zs, invert_images(rep))
    # |Y n Z|, the order of the Young subgroup of the pairs
    weight = math.prod(map(math.factorial, map(pairs.count, range(max(pairs) + 1))))
    return tuple(products), weight
