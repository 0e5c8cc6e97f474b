"""Query populations: views (or general elements) with access frequencies.

Section 5 of the paper assumes a population ``{Z_k}`` of ``K`` views with
relative access frequencies ``f_k`` summing to one — either anticipated by
the database administrator or observed on-line.  A
:class:`QueryPopulation` is that pairing, with helpers for the random
populations used in the paper's experiments (Section 7.2).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .element import CubeShape, ElementId

__all__ = ["QueryPopulation"]


@dataclass(frozen=True)
class QueryPopulation:
    """A population of query targets with normalized access frequencies.

    ``queries[k]`` is accessed with relative frequency ``frequencies[k]``.
    Targets are usually aggregated views but may be any view element
    (Section 5.2 allows "views, or, in general, view elements").
    """

    queries: tuple[ElementId, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.queries) != len(self.frequencies):
            raise ValueError("queries and frequencies differ in length")
        if not self.queries:
            raise ValueError("a population needs at least one query")
        shape = self.queries[0].shape
        for q in self.queries:
            if q.shape != shape:
                raise ValueError("all queries must target the same cube shape")
        for index, f in enumerate(self.frequencies):
            if not math.isfinite(f):
                raise ValueError(f"frequency {index} is not finite: {f!r}")
        total = float(sum(self.frequencies))
        if total <= 0:
            raise ValueError("frequencies must have a positive sum")
        for f in self.frequencies:
            if f < 0:
                raise ValueError("frequencies must be non-negative")
        if abs(total - 1.0) > 1e-9:
            object.__setattr__(
                self,
                "frequencies",
                tuple(f / total for f in self.frequencies),
            )

    # ------------------------------------------------------------------

    @property
    def shape(self) -> CubeShape:
        """Shape of the cube the queries target."""
        return self.queries[0].shape

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(zip(self.queries, self.frequencies))

    def frequency_of(self, query: ElementId) -> float:
        """Frequency of ``query`` (0.0 when absent)."""
        for q, f in self:
            if q == query:
                return f
        return 0.0

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[ElementId, float]]) -> "QueryPopulation":
        """Build from ``(query, frequency)`` pairs; frequencies normalized."""
        pairs = list(pairs)
        return cls(tuple(q for q, _ in pairs), tuple(f for _, f in pairs))

    @classmethod
    def uniform_over_views(cls, shape: CubeShape) -> "QueryPopulation":
        """Equal frequency on every aggregated view."""
        views = tuple(shape.aggregated_views())
        return cls(views, tuple(1.0 / len(views) for _ in views))

    @classmethod
    def random_over_views(
        cls,
        shape: CubeShape,
        rng: np.random.Generator | None = None,
        concentration: float | None = None,
        include_root: bool = True,
    ) -> "QueryPopulation":
        """The paper's experimental workload (Section 7.2).

        Assigns a random weight to each aggregated view and normalizes.
        With ``concentration=None`` weights are i.i.d. uniform on (0, 1);
        otherwise they are Dirichlet with the given symmetric concentration
        parameter — smaller values give more skewed (hotter) workloads.  The
        paper only says frequencies were "chosen at random"; both readings
        are provided and the Figure 8 driver reports the sensitivity.

        ``include_root`` controls whether the undecomposed cube ``A`` (the
        zero-dimensions-aggregated view) is part of the query population.
        The distinction matters: querying ``A`` is free for any selection
        containing the cube but expensive for a fragmented element basis.
        The paper's Figure 8 is only consistent with ``A`` *included*
        (otherwise the wavelet basis would beat the raw cube), while its
        Figure 9 is only consistent with ``A`` *excluded* (otherwise the
        view-greedy [D] strategy overtakes [V] at intermediate budgets);
        see EXPERIMENTS.md for the analysis.
        """
        rng = rng if rng is not None else np.random.default_rng()
        views = tuple(
            v
            for v in shape.aggregated_views()
            if include_root or not v.is_root
        )
        if concentration is None:
            weights = rng.random(len(views))
        else:
            if concentration <= 0:
                raise ValueError(
                    f"concentration must be positive, got {concentration}"
                )
            weights = rng.dirichlet(np.full(len(views), concentration))
        weights = weights / weights.sum()
        return cls(views, tuple(float(w) for w in weights))

    @classmethod
    def point_mass(
        cls, queries: Sequence[ElementId], hot: Sequence[int] | None = None
    ) -> "QueryPopulation":
        """Equal mass on a subset of ``queries`` (all of them by default).

        Used for pedagogical settings such as the paper's Section 7.1 where
        ``f_1 = f_7 = 0.5`` and every other view has zero frequency.
        """
        queries = tuple(queries)
        if hot is None:
            hot = range(len(queries))
        hot = set(hot)
        if not hot:
            raise ValueError("at least one query must carry mass")
        freqs = tuple(1.0 / len(hot) if i in hot else 0.0 for i in range(len(queries)))
        return cls(queries, freqs)

    def restricted_to_support(self) -> "QueryPopulation":
        """Drop zero-frequency queries (cost sums are unaffected)."""
        pairs = [(q, f) for q, f in self if f > 0]
        return QueryPopulation.from_pairs(pairs)
