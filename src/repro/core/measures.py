"""Outlierness measures over neighbor-vector matrices (paper Section 5).

Each measure scores every candidate vertex against a reference set; **lower
scores mean stronger outliers** for all measures here, matching the paper's
Ω convention.

Inputs are stacked neighbor-vector matrices: ``phi_candidates`` has one row
``φ_P(v)`` per candidate and ``phi_reference`` one row per reference vertex,
both over the same feature dimension (the target type of ``P``).

Measures
--------
* :class:`NetOutMeasure` — Definition 10:
  ``Ω(v) = Σ_{r∈Sr} κ(v, r) = φ(v)·(Σ_r φ(r)) / ‖φ(v)‖²`` — the right-hand
  form is paper Equation 1, computable in O(|Sr| + |Sc|) row operations.
* :class:`PathSimMeasure` — ΩPathSim: the same sum with PathSim
  (Sun et al., VLDB 2011) in place of κ.  Inherently pairwise.
* :class:`CosineMeasure` — ΩCosSim: cosine similarity in place of κ; also
  reducible to a sum-vector form after row normalization.

A registry maps measure names (``"netout"``, ``"pathsim"``, ``"cossim"``) to
factory callables so engines and benchmarks can select measures by name and
users can plug their own (paper §8, "alternative outlierness measure").
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np
from scipy import sparse

from repro.core.aggregation import aggregate_normalized_connectivity
from repro.core.connectivity import connectivity_matrix, visibilities
from repro.exceptions import MeasureError

__all__ = [
    "Measure",
    "NetOutMeasure",
    "PathSimMeasure",
    "CosineMeasure",
    "register_measure",
    "get_measure",
    "available_measures",
]


def _to_csr(matrix: sparse.spmatrix | np.ndarray) -> sparse.csr_matrix:
    if sparse.issparse(matrix):
        return matrix.tocsr()
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise MeasureError(f"expected a 2-D matrix of neighbor vectors, got shape {array.shape}")
    return sparse.csr_matrix(array)


def _check_shapes(phi_candidates: sparse.csr_matrix, phi_reference: sparse.csr_matrix) -> None:
    if phi_candidates.shape[1] != phi_reference.shape[1]:
        raise MeasureError(
            "candidate and reference neighbor vectors have different feature "
            f"dimensions: {phi_candidates.shape[1]} vs {phi_reference.shape[1]}"
        )


class Measure(abc.ABC):
    """Scores candidates against a reference set; lower = more outlying."""

    #: Registry name; subclasses set this.
    name: str = ""

    #: True when ``φ(v)·Σ_r φ(r)`` and ``‖φ(v)‖²`` per candidate suffice (paper
    #: Equation 1): the measure then offers ``score_from_sums(numerators,
    #: visibilities, reference_count)`` and is spared the matrices of :meth:`score`.
    scores_from_sums = False

    @abc.abstractmethod
    def score(
        self,
        phi_candidates: sparse.spmatrix | np.ndarray,
        phi_reference: sparse.spmatrix | np.ndarray,
    ) -> np.ndarray:
        """Ω score per candidate row, as a 1-D float array."""

    def score_pairwise(
        self,
        phi_candidates: sparse.spmatrix | np.ndarray,
        phi_reference: sparse.spmatrix | np.ndarray,
    ) -> np.ndarray:
        """Naive O(|Sc|·|Sr|) scoring, used as ground truth in tests/ablation.

        Default delegates to :meth:`score`; measures with a faster
        vectorized path override :meth:`score` and keep the pairwise form
        here.
        """
        return self.score(phi_candidates, phi_reference)

    @property
    def is_additive(self) -> bool:
        """True when Ω is a plain sum of per-reference contributions.

        Additive measures support progressive evaluation (paper §8): the
        executor can process the reference set in chunks and project the
        final score from a sample.  Sum-aggregated NetOut, ΩPathSim, and
        ΩCosSim are additive; min/max aggregations are not.
        """
        return False

    def contribution_matrix(
        self,
        phi_candidates: sparse.spmatrix | np.ndarray,
        phi_reference: sparse.spmatrix | np.ndarray,
    ) -> np.ndarray:
        """Per-pair contributions: entry ``(i, j)`` is reference ``j``'s
        additive contribution to candidate ``i``'s Ω.

        Only meaningful for additive measures; rows sum to
        :meth:`score_pairwise`.

        Raises
        ------
        MeasureError
            When the measure is not additive.
        """
        raise MeasureError(
            f"measure {self.name!r} is not additive; progressive evaluation "
            "is unavailable"
        )


class NetOutMeasure(Measure):
    """NetOut (Definition 10) with the Equation 1 vectorized evaluation.

    Parameters
    ----------
    aggregation:
        How per-reference normalized connectivities combine: ``"sum"``
        (the paper's definition), or ``"mean"`` / ``"min"`` / ``"max"`` for
        the Section 5.2 ablation.  Only ``"sum"`` and ``"mean"`` admit the
        O(|Sr|+|Sc|) evaluation; ``"min"``/``"max"`` fall back to pairwise.
    """

    name = "netout"

    def __init__(self, aggregation: str = "sum") -> None:
        if aggregation not in ("sum", "mean", "min", "max"):
            raise MeasureError(
                f"unknown aggregation {aggregation!r}; expected sum/mean/min/max"
            )
        self.aggregation = aggregation
        # A subclass that overrides ``score`` keeps being scored by it.
        inherited = type(self).score is NetOutMeasure.score
        self.scores_from_sums = inherited and aggregation in ("sum", "mean")

    def score(self, phi_candidates, phi_reference) -> np.ndarray:
        candidates = _to_csr(phi_candidates)
        reference = _to_csr(phi_reference)
        _check_shapes(candidates, reference)
        if self.aggregation in ("min", "max"):
            return self.score_pairwise(candidates, reference)
        reference_sum = np.asarray(reference.sum(axis=0)).ravel()
        return self.score_from_sums(
            candidates @ reference_sum, visibilities(candidates), reference.shape[0]
        )

    def score_from_sums(self, numerators, visibilities, reference_count) -> np.ndarray:
        # Paper Equation 1: Ω(v) = φ(v)·(Σ_r φ(r)) / ‖φ(v)‖².
        scores = np.zeros(len(numerators), dtype=float)
        nonzero = visibilities > 0
        scores[nonzero] = numerators[nonzero] / visibilities[nonzero]
        if self.aggregation == "mean" and reference_count > 0:
            scores /= reference_count
        return scores

    def score_pairwise(self, phi_candidates, phi_reference) -> np.ndarray:
        return aggregate_normalized_connectivity(
            self._kappa_matrix(phi_candidates, phi_reference), self.aggregation
        )

    def _kappa_matrix(self, phi_candidates, phi_reference) -> np.ndarray:
        candidates = _to_csr(phi_candidates)
        reference = _to_csr(phi_reference)
        _check_shapes(candidates, reference)
        chi = connectivity_matrix(candidates, reference)
        vis = visibilities(candidates)
        kappa = np.zeros_like(chi)
        nonzero = vis > 0
        kappa[nonzero] = chi[nonzero] / vis[nonzero, None]
        return kappa

    @property
    def is_additive(self) -> bool:
        return self.aggregation == "sum"

    def contribution_matrix(self, phi_candidates, phi_reference) -> np.ndarray:
        if not self.is_additive:
            return super().contribution_matrix(phi_candidates, phi_reference)
        return self._kappa_matrix(phi_candidates, phi_reference)


class PathSimMeasure(Measure):
    """ΩPathSim: NetOut's sum with PathSim in place of κ (paper §5.2).

    ``PathSim(a, b) = 2·χ(a, b) / (χ(a, a) + χ(b, b))`` — symmetric, and
    biased toward low-visibility candidates (the bias Tables 2-3
    demonstrate).  Pairwise by nature: the per-pair denominator prevents the
    sum-vector factorization.
    """

    name = "pathsim"

    def __init__(self, aggregation: str = "sum") -> None:
        if aggregation not in ("sum", "mean", "min", "max"):
            raise MeasureError(
                f"unknown aggregation {aggregation!r}; expected sum/mean/min/max"
            )
        self.aggregation = aggregation

    def score(self, phi_candidates, phi_reference) -> np.ndarray:
        return aggregate_normalized_connectivity(
            self._similarity_matrix(phi_candidates, phi_reference),
            self.aggregation,
        )

    def _similarity_matrix(self, phi_candidates, phi_reference) -> np.ndarray:
        candidates = _to_csr(phi_candidates)
        reference = _to_csr(phi_reference)
        _check_shapes(candidates, reference)
        chi = connectivity_matrix(candidates, reference)
        vis_candidates = visibilities(candidates)
        vis_reference = visibilities(reference)
        denominators = (vis_candidates[:, None] + vis_reference[None, :]) / 2.0
        similarity = np.zeros_like(chi)
        nonzero = denominators > 0
        similarity[nonzero] = chi[nonzero] / denominators[nonzero]
        return similarity

    @property
    def is_additive(self) -> bool:
        return self.aggregation == "sum"

    def contribution_matrix(self, phi_candidates, phi_reference) -> np.ndarray:
        if not self.is_additive:
            return super().contribution_matrix(phi_candidates, phi_reference)
        return self._similarity_matrix(phi_candidates, phi_reference)


class CosineMeasure(Measure):
    """ΩCosSim: NetOut's sum with cosine similarity in place of κ (§5.2).

    After normalizing every row to unit L2 norm, the sum over the reference
    set factorizes exactly like Equation 1, so the vectorized path is
    O(|Sr| + |Sc|) as well.  Zero rows stay zero (cosine with a zero vector
    is taken as 0).
    """

    name = "cossim"

    def __init__(self, aggregation: str = "sum") -> None:
        if aggregation not in ("sum", "mean", "min", "max"):
            raise MeasureError(
                f"unknown aggregation {aggregation!r}; expected sum/mean/min/max"
            )
        self.aggregation = aggregation

    @staticmethod
    def _normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
        norms = np.sqrt(visibilities(matrix))
        inverse = np.zeros_like(norms)
        nonzero = norms > 0
        inverse[nonzero] = 1.0 / norms[nonzero]
        scaler = sparse.diags(inverse)
        return (scaler @ matrix).tocsr()

    def score(self, phi_candidates, phi_reference) -> np.ndarray:
        candidates = self._normalize_rows(_to_csr(phi_candidates))
        reference = self._normalize_rows(_to_csr(phi_reference))
        _check_shapes(candidates, reference)
        if self.aggregation in ("min", "max"):
            similarity = connectivity_matrix(candidates, reference)
            return aggregate_normalized_connectivity(similarity, self.aggregation)
        reference_sum = np.asarray(reference.sum(axis=0)).ravel()
        scores = candidates @ reference_sum
        if self.aggregation == "mean" and reference.shape[0] > 0:
            scores = scores / reference.shape[0]
        return np.asarray(scores, dtype=float)

    def score_pairwise(self, phi_candidates, phi_reference) -> np.ndarray:
        candidates = self._normalize_rows(_to_csr(phi_candidates))
        reference = self._normalize_rows(_to_csr(phi_reference))
        _check_shapes(candidates, reference)
        similarity = connectivity_matrix(candidates, reference)
        return aggregate_normalized_connectivity(similarity, self.aggregation)

    @property
    def is_additive(self) -> bool:
        return self.aggregation == "sum"

    def contribution_matrix(self, phi_candidates, phi_reference) -> np.ndarray:
        if not self.is_additive:
            return super().contribution_matrix(phi_candidates, phi_reference)
        candidates = self._normalize_rows(_to_csr(phi_candidates))
        reference = self._normalize_rows(_to_csr(phi_reference))
        _check_shapes(candidates, reference)
        return connectivity_matrix(candidates, reference)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[[], Measure]] = {}


def register_measure(name: str, factory: Callable[[], Measure]) -> None:
    """Register a measure factory under ``name`` (case-insensitive).

    Re-registering a name overwrites the previous factory, which lets tests
    and applications shadow built-ins.
    """
    if not name:
        raise MeasureError("measure name must be non-empty")
    _REGISTRY[name.lower()] = factory


def get_measure(name: str) -> Measure:
    """Instantiate the measure registered under ``name``.

    Raises
    ------
    MeasureError
        For unknown names; the message lists what is available.
    """
    factory = _REGISTRY.get(name.lower())
    if factory is None:
        raise MeasureError(
            f"unknown measure {name!r}; available: {', '.join(available_measures())}"
        )
    return factory()


def available_measures() -> list[str]:
    """Sorted registered measure names."""
    return sorted(_REGISTRY)


register_measure("netout", NetOutMeasure)
register_measure("pathsim", PathSimMeasure)
register_measure("cossim", CosineMeasure)
