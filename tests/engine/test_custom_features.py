"""Tests for :meth:`OutlierDetector.detect_with_features` (§8 alternative design)."""

import numpy as np
import pytest
from scipy import sparse

from repro.engine.detector import OutlierDetector
from repro.exceptions import ExecutionError, QuerySemanticError
from repro.hin.network import VertexId
from repro.metapath.materialize import materialize
from repro.metapath.metapath import MetaPath


@pytest.fixture()
def detector(figure1):
    return OutlierDetector(figure1)


class TestCallableFeatures:
    def test_callable_features(self, figure1, detector):
        def venue_profile(network, member_type, indices):
            matrix = materialize(network, MetaPath.parse("author.paper.venue"))
            return matrix[indices, :]

        custom = detector.detect_with_features("author", venue_profile, top_k=3)
        declarative = detector.detect(
            "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;"
        )
        assert custom.names() == declarative.names()

    def test_non_metapath_characterization(self, figure1, detector):
        """The point of the API: features no meta-path can express —
        here, scalar publication counts."""

        def paper_count(network, member_type, indices):
            return np.array(
                [
                    [network.degree(VertexId(member_type, i), "paper")]
                    for i in indices
                ]
            )

        result = detector.detect_with_features("author", paper_count, top_k=3)
        assert result.candidate_count == figure1.num_vertices("author")
        assert len(result) == 3

    def test_callable_sees_correct_arguments(self, figure1, detector):
        seen = {}

        def spy(network, member_type, indices):
            seen["member_type"] = member_type
            seen["count"] = len(indices)
            return np.ones((len(indices), 2))

        detector.detect_with_features('author{"Zoe"}.paper.author', spy)
        assert seen["member_type"] == "author"
        assert seen["count"] == 3


class TestMatrixFeatures:
    def test_precomputed_dense_matrix(self, figure1, detector):
        full = np.asarray(
            materialize(figure1, MetaPath.parse("author.paper.venue")).todense()
        )
        result = detector.detect_with_features("author", full, top_k=3)
        declarative = detector.detect(
            "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;"
        )
        assert result.names() == declarative.names()

    def test_precomputed_sparse_matrix(self, figure1, detector):
        full = materialize(figure1, MetaPath.parse("author.paper.venue"))
        result = detector.detect_with_features("author", full, top_k=2)
        assert len(result) == 2


class TestReferenceAndErrors:
    def test_reference_expression(self, figure1, detector):
        full = materialize(figure1, MetaPath.parse("author.paper.venue"))
        scoped = detector.detect_with_features(
            'author{"Zoe"}.paper.author',
            full,
            reference="author",
            top_k=3,
        )
        assert scoped.reference_count == figure1.num_vertices("author")

    def test_mismatched_reference_type(self, figure1, detector):
        full = materialize(figure1, MetaPath.parse("author.paper.venue"))
        with pytest.raises(QuerySemanticError, match="member type"):
            detector.detect_with_features("author", full, reference="venue")

    def test_illegal_reference_chain(self, figure1, detector):
        """The reference set is validated like the candidate set: an
        unregistered step is a semantic error, not a network lookup failure."""
        full = materialize(figure1, MetaPath.parse("author.paper.venue"))
        with pytest.raises(QuerySemanticError, match="author-venue"):
            detector.detect_with_features("author", full, reference="author.venue")

    def test_row_count_mismatch_rejected(self, figure1, detector):
        def bad(network, member_type, indices):
            return np.ones((1, 2))

        with pytest.raises(ExecutionError, match="do not match"):
            detector.detect_with_features("author", bad)

    def test_invalid_top_k(self, figure1, detector):
        with pytest.raises(ExecutionError):
            detector.detect_with_features("author", np.ones((3, 1)), top_k=0)
