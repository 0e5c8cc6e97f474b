"""View-element identifiers and their algebra (Sections 3-4 of the paper).

A view element of a data cube ``A`` is the result of applying a cascade of
partial (``P1``) and residual (``R1``) aggregations along its dimensions
(Definition 2).  Because the operators are separable (Property 4), a view
element is fully identified per dimension by the *sequence* of operators
applied along that dimension — equivalently, by a node of a complete binary
tree: a dyadic interval of the frequency axis (Section 4.2).

We encode the per-dimension state as a pair ``(level, index)``:

- ``level`` — how many operators have been applied along the dimension
  (``0 <= level <= log2(n)``);
- ``index`` — the binary number whose bits, most-significant first, record
  the cascade: bit 0 for ``P1`` and bit 1 for ``R1``
  (``0 <= index < 2**level``).

The frequency-plane rectangle of the paper (Eqs 21-23) falls out exactly:
along each dimension the element occupies ``[index / 2**level,
(index + 1) / 2**level)``.  Applying ``P1`` maps ``(k, j) -> (k+1, 2j)`` and
``R1`` maps ``(k, j) -> (k+1, 2j+1)``.

The classes here are pure identifier algebra; numeric materialization lives
in :mod:`repro.core.materialize`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

from ..errors import InvalidQueryError

__all__ = [
    "CubeShape",
    "ContainmentSignatures",
    "ElementId",
    "DimNode",
    "as_index",
]

#: A per-dimension node: ``(level, index)``.
DimNode = tuple[int, int]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_index(value, what: str) -> int:
    """``value`` as an exact integer, for a level or bound a request names.

    ``operator.index`` semantics (numpy integers pass; ``1.9`` is refused
    rather than truncated) minus ``bool``.  ``what`` names the offending
    field in the :class:`~repro.errors.InvalidQueryError`.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidQueryError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CubeShape:
    """The shape of a data cube: one power-of-two extent per dimension.

    The paper assumes ``n_m = 2**k_m`` for every dimension (Section 2); the
    constructor enforces this.
    """

    sizes: tuple[int, ...]

    def __init__(self, sizes) -> None:
        sizes = tuple(int(s) for s in sizes)
        if not sizes:
            raise ValueError("a cube needs at least one dimension")
        for m, n in enumerate(sizes):
            if not _is_power_of_two(n):
                raise ValueError(f"dimension {m} has extent {n}, not a power of two")
        object.__setattr__(self, "sizes", sizes)
        #: Maximum decomposition depth ``K_m = log2(n_m)`` per dimension.
        #: Computed once: every child derivation of both planners reads it
        #: (hundreds of thousands of times per selection), as every
        #: ``ElementId`` hash reads the shape's hash.
        object.__setattr__(
            self, "depths", tuple(n.bit_length() - 1 for n in sizes)
        )
        object.__setattr__(self, "_hash", hash((sizes,)))
        #: The intern table of :meth:`intermediate`.  Not a dataclass field:
        #: it stays out of ``==``, ``hash`` and ``repr``, and
        #: :meth:`__reduce__` keeps it out of copies and pickles.
        object.__setattr__(self, "_intermediates", {})

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.sizes,)

    @property
    def ndim(self) -> int:
        """Number of dimensions ``d``."""
        return len(self.sizes)

    @property
    def volume(self) -> int:
        """Volume of the cube, ``prod(n_m)`` (Eq 11)."""
        return reduce(lambda a, b: a * b, self.sizes, 1)

    # ------------------------------------------------------------------
    # Distinguished elements

    def root(self) -> "ElementId":
        """The undecomposed data cube ``A`` itself."""
        return self.intermediate((0,) * self.ndim)

    def element(self, nodes) -> "ElementId":
        """Build an element from per-dimension ``(level, index)`` pairs."""
        return ElementId(self, tuple((int(k), int(j)) for k, j in nodes))

    def intermediate(self, levels) -> "ElementId":
        """The pure partial-sum element with ``levels[m]`` sums along ``m``.

        Its nodes are ``((levels[0], 0), ..., (levels[d-1], 0))``: what a
        roll-up, an aggregated view and every block of a range query
        resolve to (Section 6).  There are only ``N_iv`` of them (Eq 19),
        so each is built and validated once and every later request for
        the same ``levels`` tuple gets the same object back — its hash,
        ``describe()`` text and the ``is`` shortcut of every dict probe
        behind it included.  The table is bounded by Eq 19 and never
        evicts.  Identity is only a shortcut: an equal ``ElementId`` built
        any other way compares and hashes the same.
        """
        levels = tuple(levels)
        element = self._intermediates.get(levels)
        if element is None:
            levels = tuple(operator.index(k) for k in levels)
            # ``setdefault``: two threads racing on a first use converge
            # on one object.
            element = self._intermediates.setdefault(
                levels, ElementId(self, tuple((k, 0) for k in levels))
            )
        return element

    def aggregated_view(self, aggregated_dims) -> "ElementId":
        """The aggregated view that totally aggregates ``aggregated_dims``.

        Definition 1: an aggregated view totally aggregates the cube along a
        subset of its dimensions.  The remaining dimensions are untouched.
        """
        depths = self.depths
        levels = [0] * len(depths)
        bad = set()
        for m in aggregated_dims:
            m = int(m)
            if 0 <= m < len(depths):
                levels[m] = depths[m]
            else:
                bad.add(m)
        if bad:
            raise ValueError(f"unknown dimensions {sorted(bad)}")
        return self.intermediate(tuple(levels))

    def aggregated_views(self):
        """All ``2**d`` aggregated views, cube-lattice order (Eq 18)."""
        for r in range(self.ndim + 1):
            for combo in itertools.combinations(range(self.ndim), r):
                yield self.aggregated_view(combo)

    def total_aggregation(self) -> "ElementId":
        """The fully aggregated view ``S(A)`` (a single cell)."""
        return self.aggregated_view(range(self.ndim))

    # ------------------------------------------------------------------
    # Counting formulas (Section 4.1)

    def num_view_elements(self) -> int:
        """``N_ve = prod(2 n_m - 1)`` (Eq 17)."""
        return reduce(lambda a, n: a * (2 * n - 1), self.sizes, 1)

    def num_aggregated_views(self) -> int:
        """``N_av = 2**d`` (Eq 18)."""
        return 2**self.ndim

    def num_intermediate_elements(self) -> int:
        """``N_iv = prod(log2(n_m) + 1)`` (Eq 19)."""
        return reduce(lambda a, k: a * (k + 1), self.depths, 1)

    def num_residual_elements(self) -> int:
        """``N_rv = N_ve - N_iv`` (Eq 20)."""
        return self.num_view_elements() - self.num_intermediate_elements()

    def num_blocks(self) -> int:
        """``N_b = prod(log2(n_m) + 1)`` blocks of the graph (Section 4.1).

        A block groups the view elements that share a level vector; it
        coincides numerically with ``N_iv`` because both count level vectors.
        """
        return self.num_intermediate_elements()

    def __len__(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)


def _dim_contains(outer: DimNode, inner: DimNode) -> bool:
    """Dyadic containment of per-dimension frequency intervals."""
    ok, oj = outer
    ik, ij = inner
    if ik < ok:
        return False
    return (ij >> (ik - ok)) == oj


class ContainmentSignatures:
    """One dimension's dyadic intervals, up to nesting with a fixed set.

    The reduced-state recursions over the view element graph — Algorithm 1
    against the query intervals, Procedure 3 against the stored ones — read,
    along each dimension, only how an interval ``(k, j)`` nests with the
    listed intervals ``I``.  ``(k, j)`` either

    - contains or equals a member of ``I`` — then it is its own signature
      (at most ``K + 1`` ancestors-or-self per member); or
    - does not — then neither does any interval below it, and the members
      containing it or any of its descendants all contain ``(k, j)``
      itself: ancestors of one node, hence a chain, named by its deepest
      member (the *anchor*).  The signature is ``(k, -1 - anchor
      number)``, number 0 for "none".

    Intervals with one signature have the same level, the same members of
    ``I`` containing them and inside them, and children with equal
    signatures (both children of an anchored ``(k, t)`` are ``(k + 1,
    t)``); ``docs/paper_notes.md`` has the argument.
    """

    def __init__(self, intervals: Iterable[DimNode]):
        self._numbers: dict[DimNode, int] = {}
        self._covering: set[DimNode] = set()
        for node in intervals:
            if node in self._numbers:
                continue
            self._numbers[node] = len(self._numbers) + 1
            k, j = node
            while k >= 0 and (k, j) not in self._covering:
                self._covering.add((k, j))
                k, j = k - 1, j >> 1
        #: Signature -> one interval of its class, for containment tests.
        self.member: dict[DimNode, DimNode] = {}
        self._kids: dict[DimNode, tuple[DimNode, DimNode]] = {}

    def of(self, k: int, j: int) -> DimNode:
        """The signature of interval ``(k, j)``."""
        if (k, j) in self._covering:
            sig = (k, j)
        else:
            number, ak, aj = 0, k - 1, j >> 1
            while ak >= 0 and not number:
                number = self._numbers.get((ak, aj), 0)
                ak, aj = ak - 1, aj >> 1
            sig = (k, -1 - number)
        self.member.setdefault(sig, (k, j))
        return sig

    def children(self, sig: DimNode) -> tuple[DimNode, DimNode]:
        """The signatures of the ``P1`` and ``R1`` children of ``sig``."""
        kids = self._kids.get(sig)
        if kids is None:
            k, tag = sig
            if tag < 0:
                kid = (k + 1, tag)
                mk, mj = self.member[sig]
                self.member.setdefault(kid, (mk + 1, 2 * mj))
                kids = (kid, kid)
            else:
                kids = (self.of(k + 1, 2 * tag), self.of(k + 1, 2 * tag + 1))
            self._kids[sig] = kids
        return kids


@dataclass(frozen=True)
class ElementId:
    """Identifier of one view element of a cube of shape ``shape``.

    ``nodes[m] = (level, index)`` records the operator cascade applied along
    dimension ``m``; see the module docstring for the encoding.
    """

    shape: CubeShape
    nodes: tuple[DimNode, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != self.shape.ndim:
            raise ValueError(
                f"{len(self.nodes)} dimension nodes for a "
                f"{self.shape.ndim}-dimensional cube"
            )
        for m, ((k, j), depth) in enumerate(zip(self.nodes, self.shape.depths)):
            if not 0 <= k <= depth:
                raise ValueError(f"dimension {m}: level {k} outside [0, {depth}]")
            if not 0 <= j < 2**k:
                raise ValueError(f"dimension {m}: index {j} outside [0, {2 ** k})")
        # Planner hot path: one Procedure 3 pricing pass hashes element
        # ids tens of thousands of times (memo lookups) and reads their
        # volumes nearly as often.  Both are pure functions of the frozen
        # fields, so precompute them once — the volume as a plain
        # attribute, read with no call; int-tuple hashes do not depend
        # on PYTHONHASHSEED, so the cached hash survives pickling to the
        # process-pool workers.
        object.__setattr__(self, "_hash", hash((self.shape, self.nodes)))
        #: Number of cells in the materialized element.
        object.__setattr__(
            self,
            "volume",
            reduce(
                lambda a, b: a * b,
                (n >> k for n, (k, _) in zip(self.shape.sizes, self.nodes)),
                1,
            ),
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Classification (Definitions 1-4)

    @property
    def is_root(self) -> bool:
        """True for the undecomposed cube ``A``."""
        return all(k == 0 for k, _ in self.nodes)

    @property
    def is_intermediate(self) -> bool:
        """True when only partial (never residual) aggregations were used."""
        return all(j == 0 for _, j in self.nodes)

    @property
    def is_residual(self) -> bool:
        """True when a residual aggregation was used anywhere (Definition 3)."""
        return not self.is_intermediate

    @property
    def is_aggregated_view(self) -> bool:
        """True for the ``2**d`` classic aggregated views (Definition 1)."""
        for (k, j), depth in zip(self.nodes, self.shape.depths):
            if j != 0:
                return False
            if k not in (0, depth):
                return False
        return True

    @property
    def aggregated_dims(self) -> tuple[int, ...]:
        """The dimensions this element totally aggregates."""
        return tuple(
            m
            for m, ((k, j), depth) in enumerate(zip(self.nodes, self.shape.depths))
            if j == 0 and k == depth
        )

    # ------------------------------------------------------------------
    # Geometry

    @property
    def data_shape(self) -> tuple[int, ...]:
        """Array shape of the materialized element (each operator halves)."""
        return tuple(n >> k for n, (k, _) in zip(self.shape.sizes, self.nodes))

    @property
    def log2_volume(self) -> int:
        """``log2(volume)`` — volumes are always powers of two."""
        return sum(
            n.bit_length() - 1 - k for n, (k, _) in zip(self.shape.sizes, self.nodes)
        )

    @property
    def depth(self) -> int:
        """Total number of operator applications (sum of levels)."""
        return sum(k for k, _ in self.nodes)

    def frequency_rectangle(self) -> tuple[tuple[float, float], ...]:
        """Per-dimension ``(position, size)`` in the frequency plane (Eq 23)."""
        return tuple((j / 2**k, 1 / 2**k) for k, j in self.nodes)

    # ------------------------------------------------------------------
    # Graph structure

    def can_split(self, dim: int) -> bool:
        """Whether ``(P1, R1)`` can still be applied along ``dim``."""
        k, _ = self.nodes[dim]
        return k < self.shape.depths[dim]

    def splittable_dims(self) -> tuple[int, ...]:
        """All dimensions along which this element can be decomposed."""
        return tuple(m for m in range(self.shape.ndim) if self.can_split(m))

    @property
    def is_terminal(self) -> bool:
        """True when no further decomposition is possible (volume 1)."""
        return not self.splittable_dims()

    def _replace(self, dim: int, node: DimNode) -> "ElementId":
        nodes = list(self.nodes)
        nodes[dim] = node
        return ElementId(self.shape, tuple(nodes))

    def _child(self, dim: int, residual: int) -> "ElementId":
        """The ``P1`` (``residual=0``) or ``R1`` (``1``) child along ``dim``.

        A child of a valid element is valid by construction (the level was
        just checked against the depth, and ``2 j + bit < 2**(k + 1)``), so
        it skips ``__post_init__``: one operator halves the volume, and the
        hash is the same function of the fields public construction uses.
        """
        shape, nodes = self.shape, self.nodes
        k, j = nodes[dim]
        if k >= shape.depths[dim]:
            raise ValueError(f"dimension {dim} already fully aggregated")
        nodes = nodes[:dim] + ((k + 1, 2 * j + residual),) + nodes[dim + 1 :]
        child = object.__new__(ElementId)
        child.__dict__.update(
            shape=shape,
            nodes=nodes,
            _hash=hash((shape, nodes)),
            volume=self.volume >> 1,
        )
        return child

    def partial_child(self, dim: int) -> "ElementId":
        """``P1`` applied along ``dim``: ``(k, j) -> (k + 1, 2 j)``."""
        return self._child(dim, 0)

    def residual_child(self, dim: int) -> "ElementId":
        """``R1`` applied along ``dim``: ``(k, j) -> (k + 1, 2 j + 1)``."""
        return self._child(dim, 1)

    def children(self, dim: int) -> tuple["ElementId", "ElementId"]:
        """Both children along ``dim``: ``(P1 child, R1 child)``."""
        return self.partial_child(dim), self.residual_child(dim)

    def parent(self, dim: int) -> "ElementId":
        """Undo the last operator along ``dim``: ``(k, j) -> (k - 1, j // 2)``."""
        k, j = self.nodes[dim]
        if k == 0:
            raise ValueError(f"dimension {dim} is undecomposed; no parent")
        return self._replace(dim, (k - 1, j // 2))

    def parents(self):
        """All per-dimension parents (up to ``d`` of them)."""
        return tuple(self.parent(m) for m in range(self.shape.ndim) if self.nodes[m][0] > 0)

    def path(self, dim: int) -> str:
        """The operator cascade along ``dim`` as a string of ``P``/``R``."""
        k, j = self.nodes[dim]
        return "".join("R" if (j >> (k - 1 - b)) & 1 else "P" for b in range(k))

    # ------------------------------------------------------------------
    # Containment / intersection (frequency plane, Eqs 24-25)

    def contains(self, other: "ElementId") -> bool:
        """Frequency-plane containment: ``other``'s rectangle inside ours.

        Because every rectangle is dyadic, containment per dimension means
        ``other`` refines our node; overall containment is the conjunction.
        An element contains exactly its graph descendants, i.e. everything
        derivable from it by further partial/residual aggregation.
        """
        if self.shape is not other.shape:
            self._check_same_shape(other)
        # ``_dim_contains`` per dimension, inlined: the warm-ancestor
        # lookup runs this over every warm array on a miss.
        for (ok, oj), (ik, ij) in zip(self.nodes, other.nodes):
            if ik < ok or ij >> (ik - ok) != oj:
                return False
        return True

    def intersects(self, other: "ElementId") -> bool:
        """Whether the frequency rectangles overlap (Eq 24).

        Dyadic intervals either nest or are disjoint, so two elements
        intersect iff along every dimension one node contains the other.
        """
        self._check_same_shape(other)
        return all(
            _dim_contains(a, b) or _dim_contains(b, a)
            for a, b in zip(self.nodes, other.nodes)
        )

    def intersection(self, other: "ElementId") -> "ElementId | None":
        """Largest common descendant — the element on the overlap (Eq 25).

        Returns ``None`` when the rectangles are disjoint.  Per dimension the
        overlap of two nested dyadic intervals is simply the deeper one.
        """
        self._check_same_shape(other)
        nodes = []
        for a, b in zip(self.nodes, other.nodes):
            if _dim_contains(a, b):
                nodes.append(b)
            elif _dim_contains(b, a):
                nodes.append(a)
            else:
                return None
        return ElementId(self.shape, tuple(nodes))

    def frequency_volume(self) -> float:
        """Lebesgue measure of the frequency rectangle, ``prod(1 / 2**k)``."""
        return math.prod(1.0 / 2**k for k, _ in self.nodes)

    def _check_same_shape(self, other: "ElementId") -> None:
        if self.shape is not other.shape and self.shape != other.shape:
            raise ValueError("elements belong to cubes of different shapes")

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable description, e.g. ``PR|P`` path notation.

        Kept once computed: spans and log events name the same long-lived
        elements (stored ones, the planners' routes) over and over.
        """
        text = self.__dict__.get("_describe")
        if text is None:
            paths = [self.path(m) or "." for m in range(self.shape.ndim)]
            text = self.__dict__["_describe"] = "|".join(paths)
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ElementId({self.describe()!r}, shape={self.shape.sizes})"
