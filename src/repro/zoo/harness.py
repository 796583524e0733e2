"""The zoo harness: run every detector over every scenario, emit a report.

:func:`run_zoo` drives the full grid.  For each (scenario, seed) it builds
the network once, evaluates the candidate set once (through the same
declarative set language the engine uses), then times each detector's
``fit`` and ``decision_scores`` separately and computes the shared metric
triple — ROC AUC, precision@k, average precision — against the planted
ground truth.

Reproducibility contract: the report is a pure function of
``(scenarios, detectors, seeds, k, quick)``.  Decision scores are rounded
to 9 significant digits before ranking and metric computation so the
committed golden fixture compares *exactly* across platforms (the rounding
is far coarser than any detector's score gaps and far finer than float64
platform jitter); ranking ties break by candidate name.  Timings are the
only non-deterministic fields, and :func:`strip_timings` removes them for
golden comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.evaluator import SetEvaluator
from repro.engine.strategies import make_strategy
from repro.evalmetrics import average_precision, precision_at_k, roc_auc
from repro.exceptions import MeasureError
from repro.query.parser import parse_set_expression
from repro.utils.validation import require
from repro.zoo.contract import ZooQuery
from repro.zoo.registry import available_detectors, make_detector
from repro.zoo.scenarios import ScenarioInstance, available_scenarios, build_scenario

__all__ = [
    "ZooRunConfig",
    "run_zoo",
    "strip_timings",
    "render_summary",
    "REPORT_SCHEMA_VERSION",
]

#: Bump when the report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1

#: Significant digits scores are rounded to before ranking and metrics.
SCORE_DIGITS = 9


@dataclass(frozen=True)
class ZooRunConfig:
    """Parameters of one zoo run.

    Attributes
    ----------
    scenarios:
        Scenario names to run (default: every registered scenario).
    detectors:
        Detector names to run (default: every registered detector).
    seeds:
        Seeds; the grid is the cross product scenarios x detectors x seeds.
    k:
        Cut-off for precision@k and the reported top list.
    quick:
        Build the scenarios' small (CI smoke) sizes.
    """

    scenarios: tuple[str, ...] = ()
    detectors: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (0,)
    k: int = 5
    quick: bool = False

    def __post_init__(self) -> None:
        require(len(self.seeds) >= 1, "at least one seed is required")
        require(self.k >= 1, "k must be >= 1")

    def resolved_scenarios(self) -> tuple[str, ...]:
        return self.scenarios or available_scenarios()

    def resolved_detectors(self) -> tuple[str, ...]:
        return self.detectors or available_detectors()


def _round_scores(scores: np.ndarray) -> np.ndarray:
    """Round to :data:`SCORE_DIGITS` significant digits (platform-stable)."""
    return np.asarray(
        [float(f"{value:.{SCORE_DIGITS}g}") for value in scores],
        dtype=np.float64,
    )


def _evaluate_candidates(
    instance: ScenarioInstance,
) -> tuple[str, tuple[int, ...], tuple[str, ...]]:
    """Evaluate the scenario's candidate expression to (type, indices, names)."""
    strategy = make_strategy(instance.network, "baseline")
    evaluator = SetEvaluator(strategy)
    ast = parse_set_expression(instance.candidates_expr)
    member_type, indices = evaluator.evaluate(ast)
    if not indices.size:
        raise MeasureError(
            f"scenario {instance.name!r} produced an empty candidate set"
        )
    indices = tuple(indices.tolist())
    names = tuple(
        instance.network.vertex_names(member_type)[index] for index in indices
    )
    return member_type, indices, names


def _scenario_entry(
    instance: ScenarioInstance, member_type: str, num_candidates: int
) -> dict:
    network = instance.network
    return {
        "archetype": instance.archetype,
        "member_type": member_type,
        "candidates_expr": instance.candidates_expr,
        "feature_path": str(instance.feature_path),
        "num_candidates": num_candidates,
        "num_outliers": len(instance.outliers),
        "outliers": sorted(instance.outliers),
        "vertices": network.num_vertices(),
        "edges": network.num_edges(),
    }


def run_zoo(config: ZooRunConfig | None = None) -> dict:
    """Run the detector x scenario x seed grid and return the report dict.

    The report is JSON-serializable::

        {
          "schema_version": 1,
          "quick": false, "k": 5, "seeds": [0],
          "detectors": ["netout", ...],
          "scenarios": {"attribute-outlier": {...}, ...},
          "results": [
            {"detector": "netout", "scenario": "attribute-outlier",
             "seed": 0,
             "metrics": {"roc_auc": ..., "precision_at_k": ...,
                         "average_precision": ...},
             "top": ["CrossField-1", ...],
             "fit_seconds": ..., "score_seconds": ...},
            ...
          ]
        }
    """
    config = config or ZooRunConfig()
    scenario_names = config.resolved_scenarios()
    detector_names = config.resolved_detectors()

    scenario_meta: dict[str, dict] = {}
    results: list[dict] = []
    for scenario_name in scenario_names:
        for seed in config.seeds:
            instance = build_scenario(scenario_name, seed, quick=config.quick)
            member_type, indices, names = _evaluate_candidates(instance)
            if scenario_name not in scenario_meta:
                scenario_meta[scenario_name] = _scenario_entry(
                    instance, member_type, len(indices)
                )
            query = ZooQuery(
                member_type=member_type,
                candidate_indices=indices,
                candidate_names=names,
                feature_path=instance.feature_path,
                candidates_expr=instance.candidates_expr,
                anchor=instance.anchor,
                seed=seed,
            )
            labels = [name in set(instance.outliers) for name in names]
            for detector_name in detector_names:
                detector = make_detector(detector_name)
                started = time.perf_counter()
                detector.fit(instance.network)
                fit_seconds = time.perf_counter() - started

                started = time.perf_counter()
                scores = _round_scores(detector.decision_scores(query))
                score_seconds = time.perf_counter() - started

                ranked = [
                    name
                    for _, name in sorted(
                        zip(scores, names), key=lambda pair: (-pair[0], pair[1])
                    )
                ]
                metrics = {
                    "roc_auc": roc_auc(labels, scores),
                    "precision_at_k": precision_at_k(
                        ranked, instance.outliers, config.k
                    ),
                    "average_precision": average_precision(
                        ranked, instance.outliers
                    ),
                }
                results.append(
                    {
                        "detector": detector_name,
                        "scenario": scenario_name,
                        "seed": seed,
                        "metrics": metrics,
                        "top": ranked[: config.k],
                        "fit_seconds": fit_seconds,
                        "score_seconds": score_seconds,
                    }
                )

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "quick": config.quick,
        "k": config.k,
        "seeds": list(config.seeds),
        "detectors": list(detector_names),
        "scenarios": scenario_meta,
        "results": results,
    }


def strip_timings(report: dict) -> dict:
    """A copy of the report without the timing fields.

    This is the deterministic projection the golden-fixture regression test
    (and the CI ``zoo-smoke`` diff) compares: scores, rankings, and metrics
    must match exactly; wall-clock timings never do.
    """
    stripped = dict(report)
    stripped["results"] = [
        {
            key: value
            for key, value in entry.items()
            if not key.endswith("_seconds")
        }
        for entry in report["results"]
    ]
    return stripped


def render_summary(report: dict) -> str:
    """A fixed-width text table of the report (CLI output)."""
    lines = [
        f"{'scenario':<20} {'detector':<10} {'seed':>4} "
        f"{'auc':>7} {'p@k':>7} {'ap':>7}"
    ]
    for entry in report["results"]:
        metrics = entry["metrics"]
        lines.append(
            f"{entry['scenario']:<20} {entry['detector']:<10} "
            f"{entry['seed']:>4} "
            f"{metrics['roc_auc']:>7.3f} "
            f"{metrics['precision_at_k']:>7.3f} "
            f"{metrics['average_precision']:>7.3f}"
        )
    return "\n".join(lines)
