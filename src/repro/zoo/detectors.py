"""The eight zoo detectors: NetOut plus every baseline, one contract.

Each adapter normalizes one existing implementation — the engine-backed
NetOut detector and all seven :mod:`repro.baselines` methods — onto the
:class:`~repro.zoo.contract.Detector` surface.  Polarity is unified here:
similarity-flavoured methods (PathSim, SimRank, PPR) and NetOut's Ω
(lower = more outlying) are negated so every score vector reads
*higher = more outlying*.

====================  =============================================  =========
name                  wraps                                          polarity
====================  =============================================  =========
``netout``            :class:`repro.engine.OutlierDetector` (Ω)      negated
``lof``               :func:`repro.baselines.local_outlier_factor`   as-is
``knn``               :func:`repro.baselines.knn_distance_scores`    as-is
``pathsim``           :func:`repro.baselines.pathsim_matrix`         negated
``simrank``           :func:`repro.baselines.simrank_scores`         negated
``ppr``               :func:`repro.baselines.personalized_pagerank`  negated
``cdoutlier``         :func:`repro.baselines.\
community_distribution_outliers`                                     as-is
``nmf``               :func:`repro.baselines.factorization.nmf`      as-is
====================  =============================================  =========
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cdoutlier import community_distribution_outliers
from repro.baselines.factorization import nmf
from repro.baselines.knn_outlier import knn_distance_scores
from repro.baselines.lof import local_outlier_factor
from repro.baselines.pathsim import pathsim_matrix
from repro.baselines.ppr import personalized_pagerank
from repro.baselines.simrank import simrank_scores
from repro.engine.detector import OutlierDetector
from repro.exceptions import MeasureError
from repro.hin.network import HeterogeneousInformationNetwork
from repro.zoo.contract import Detector, ZooQuery, candidate_features

__all__ = [
    "NetOutDetector",
    "LOFDetector",
    "KNNDetector",
    "PathSimDetector",
    "SimRankDetector",
    "PPRDetector",
    "CDOutlierDetector",
    "NMFResidualDetector",
]


class NetOutDetector(Detector):
    """The paper's detector, driven through the full query engine.

    ``decision_scores`` compiles the scenario into an outlier query (the
    declarative language, baseline materialization, NetOut measure) and
    reads back Ω for every candidate, negated so higher = more outlying.
    """

    name = "netout"

    def _fit(self, network: HeterogeneousInformationNetwork) -> None:
        self._engine = OutlierDetector(
            network, strategy="baseline", measure="netout", collect_stats=False
        )

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        text = (
            f"FIND OUTLIERS FROM {query.candidates_expr} "
            f"JUDGED BY {query.feature_path} "
            f"TOP {len(query.candidate_indices)};"
        )
        result = self._engine.detect(text)
        # The engine's candidate column is strictly increasing.
        wanted = np.asarray(query.candidate_indices, dtype=np.int64)
        rows = np.searchsorted(result.indices, wanted).clip(
            max=result.indices.size - 1
        )
        missing = result.indices[rows] != wanted
        if missing.any():
            raise MeasureError(
                f"engine result is missing candidate index "
                f"{int(wanted[missing][0])} of type {query.member_type!r}"
            )
        return -result.omega[rows]


class LOFDetector(Detector):
    """Local Outlier Factor over the candidates' neighbor vectors."""

    name = "lof"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        points = candidate_features(self.network, query)
        if points.shape[0] < 2:
            return np.zeros(points.shape[0], dtype=np.float64)
        min_pts = min(5, points.shape[0] - 1)
        return local_outlier_factor(points, min_pts=min_pts)


class KNNDetector(Detector):
    """Distance-based k-NN outlier scores (D^k) over neighbor vectors."""

    name = "knn"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        points = candidate_features(self.network, query)
        if points.shape[0] < 2:
            return np.zeros(points.shape[0], dtype=np.float64)
        k = min(5, points.shape[0] - 1)
        return knn_distance_scores(points, k=k)


class PathSimDetector(Detector):
    """Outlierness as *low mean PathSim* to the other candidates.

    Similarity search turned outlier detector: the candidate least similar
    (on average, excluding itself) to its peers is the most outlying.
    """

    name = "pathsim"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        phi = candidate_features(self.network, query)
        n = phi.shape[0]
        if n < 2:
            return np.zeros(n, dtype=np.float64)
        similarity = pathsim_matrix(phi)
        mean_to_others = (similarity.sum(axis=1) - similarity.diagonal()) / (
            n - 1
        )
        return -mean_to_others


class SimRankDetector(Detector):
    """Outlierness as *low mean SimRank* to the other candidates.

    The dense all-pairs SimRank matrix is computed once per fitted network
    (it is network-global) and reused across queries.
    """

    name = "simrank"

    def _fit(self, network: HeterogeneousInformationNetwork) -> None:
        self._similarity: np.ndarray | None = None
        self._offsets: dict[str, int] | None = None

    def _ensure_similarity(self) -> tuple[np.ndarray, dict[str, int]]:
        if self._similarity is None:
            self._similarity, self._offsets = simrank_scores(self.network)
        return self._similarity, self._offsets

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        n = len(query.candidate_indices)
        if n < 2:
            return np.zeros(n, dtype=np.float64)
        similarity, offsets = self._ensure_similarity()
        base = offsets[query.member_type]
        rows = np.asarray(query.candidate_indices, dtype=np.int64) + base
        block = similarity[np.ix_(rows, rows)]
        mean_to_others = (block.sum(axis=1) - block.diagonal()) / (n - 1)
        return -mean_to_others


class PPRDetector(Detector):
    """Outlierness as *low Personalized PageRank* from the scenario anchor.

    Requires the scenario to provide an anchor vertex (the exploration
    seed); raises :class:`~repro.exceptions.MeasureError` otherwise.
    """

    name = "ppr"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        if query.anchor is None:
            raise MeasureError(
                "the PPR detector needs a scenario anchor vertex to seed the "
                "random walk"
            )
        scores, offsets = personalized_pagerank(self.network, query.anchor)
        base = offsets[query.member_type]
        rows = np.asarray(query.candidate_indices, dtype=np.int64) + base
        return -scores[rows]


class CDOutlierDetector(Detector):
    """Community-distribution outliers (Gupta, Gao & Han) over candidates."""

    name = "cdoutlier"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        phi = candidate_features(self.network, query)
        if phi.shape[0] < 2:
            return np.zeros(phi.shape[0], dtype=np.float64)
        result = community_distribution_outliers(phi, seed=query.seed)
        return result.scores


class NMFResidualDetector(Detector):
    """NMF reconstruction residual: rows a low-rank model cannot explain.

    Factor the candidates' neighbor-vector matrix at a small rank and score
    each candidate by the L2 norm of its reconstruction error row — the
    classic residual-based detector the factorization primitives support.
    """

    name = "nmf"

    def _decision_scores(self, query: ZooQuery) -> np.ndarray:
        phi = candidate_features(self.network, query)
        if phi.shape[0] < 2:
            return np.zeros(phi.shape[0], dtype=np.float64)
        rank = max(1, min(4, min(phi.shape)))
        w, h = nmf(phi, rank, seed=query.seed)
        residual = phi - w @ h
        return np.sqrt(np.einsum("ij,ij->i", residual, residual))
