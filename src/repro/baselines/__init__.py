"""Comparison methods cited by the paper, implemented from scratch.

* :mod:`~repro.baselines.lof` — Local Outlier Factor (Breunig et al.,
  SIGMOD 2000), the measure the paper's Section 8 compares against.
* :mod:`~repro.baselines.knn_outlier` — distance-based k-NN outliers
  (Ramaswamy et al., SIGMOD 2000 / Knorr & Ng, VLDB 1998).
* :mod:`~repro.baselines.pathsim` — PathSim top-k similarity search
  (Sun et al., VLDB 2011), the similarity measure Section 5.2 contrasts
  with normalized connectivity.
* :mod:`~repro.baselines.simrank` / :mod:`~repro.baselines.ppr` — SimRank
  (Jeh & Widom, KDD 2002) and Personalized PageRank, the two similarities
  Section 5.2 says PathSim improves upon for visibility-mismatched pairs.
* :mod:`~repro.baselines.cdoutlier` — community-distribution outliers
  (Gupta, Gao & Han, ECML/PKDD 2013), the closest prior HIN outlier method
  in the related work, built on from-scratch NMF and k-means
  (:mod:`~repro.baselines.factorization`).
"""

from repro.baselines.lof import local_outlier_factor
from repro.baselines.knn_outlier import knn_distance_scores, top_k_distance_outliers
from repro.baselines.pathsim import pathsim_matrix, pathsim_top_k
from repro.baselines.simrank import simrank_scores
from repro.baselines.ppr import personalized_pagerank
from repro.baselines.factorization import kmeans, nmf
from repro.baselines.cdoutlier import (
    CommunityDistributionResult,
    community_distribution_outliers,
)

__all__ = [
    "local_outlier_factor",
    "knn_distance_scores",
    "top_k_distance_outliers",
    "pathsim_matrix",
    "pathsim_top_k",
    "simrank_scores",
    "personalized_pagerank",
    "nmf",
    "kmeans",
    "community_distribution_outliers",
    "CommunityDistributionResult",
]
