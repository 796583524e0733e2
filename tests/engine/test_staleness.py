"""Tests for index staleness detection (network mutates after index build)."""

import pytest

from repro.engine.strategies import BaselineStrategy, PMStrategy, SPMStrategy
from repro.exceptions import ExecutionError
from repro.metapath.metapath import MetaPath

PV = MetaPath.parse("author.paper.venue")


class TestNetworkVersion:
    def test_version_counts_mutations(self, figure1):
        before = figure1.version
        new_author = figure1.add_vertex("author", "Fresh")
        new_paper = figure1.add_vertex("paper", "pX")
        figure1.add_edge(new_paper, new_author)
        assert figure1.version == before + 3

    def test_duplicate_vertex_does_not_bump(self, figure1):
        figure1.add_vertex("author", "Again")
        before = figure1.version
        figure1.add_vertex("author", "Again")
        assert figure1.version == before


class TestStalenessDetection:
    def test_pm_detects_mutation(self, figure1):
        strategy = PMStrategy(figure1)
        strategy.neighbor_row(PV, 0)  # fresh: works
        figure1.add_vertex("author", "Late Arrival")
        with pytest.raises(ExecutionError, match="rebuild the index"):
            strategy.neighbor_row(PV, 0)

    def test_pm_bulk_detects_mutation(self, figure1):
        strategy = PMStrategy(figure1)
        figure1.add_vertex("author", "Late Arrival")
        with pytest.raises(ExecutionError, match="changed after"):
            strategy.neighbor_matrix(PV, [0, 1])

    def test_spm_detects_mutation(self, figure1):
        zoe = figure1.find_vertex("author", "Zoe")
        strategy = SPMStrategy(figure1, selected=[zoe])
        strategy.neighbor_row(PV, zoe.index)
        paper = figure1.find_vertex("paper", "p1")
        ava = figure1.find_vertex("author", "Ava")
        figure1.add_edge(paper, ava)
        with pytest.raises(ExecutionError, match="rebuild the index"):
            strategy.neighbor_row(PV, zoe.index)

    def test_baseline_never_stale(self, figure1):
        strategy = BaselineStrategy(figure1)
        figure1.add_vertex("author", "Late Arrival")
        strategy.neighbor_row(PV, 0)  # traversal reads live data

    def test_allow_stale_opt_out(self, figure1):
        strategy = PMStrategy(figure1, allow_stale=True)
        figure1.add_vertex("venue", "Brand New Venue")
        # Opted out: the stale lookup proceeds (values reflect build time).
        strategy.neighbor_row(PV, 0)

    def test_allow_stale_sums_read_the_live_adjacency(self, figure1):
        """A stale index's matrices are sized for the old network, so a
        tolerated stale rung propagates over the adjacency, as Baseline."""
        strategy = PMStrategy(figure1, allow_stale=True)
        late = figure1.add_vertex("author", "Late Arrival")
        figure1.add_edge(figure1.find_vertex("paper", "p1"), late)
        everyone = list(range(figure1.num_vertices("author")))
        for path in (PV, MetaPath.parse("author.paper.venue.paper.author")):
            sums = strategy.connectivity_sums(path, everyone, everyone)
            live = BaselineStrategy(figure1).connectivity_sums(path, everyone, everyone)
            assert sums.tobytes() == live.tobytes()

    def test_rebuild_clears_staleness(self, figure1):
        strategy = PMStrategy(figure1)
        figure1.add_vertex("author", "Late Arrival")
        rebuilt = PMStrategy(figure1)
        rebuilt.neighbor_row(PV, 0)

    def test_detector_surfaces_staleness(self, figure1):
        from repro.engine.detector import OutlierDetector

        detector = OutlierDetector(figure1, strategy="pm")
        figure1.add_vertex("author", "Late Arrival")
        with pytest.raises(ExecutionError, match="changed after"):
            detector.detect(
                'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
                "JUDGED BY author.paper.venue TOP 3;"
            )
