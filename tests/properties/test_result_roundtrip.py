"""Property-based tests: ``OutlierResult.to_dict`` ∘ ``from_dict`` == id.

The HTTP frontend ships results as JSON, so the wire form must be lossless
for everything that *is* the answer: scores, ranks, names, degradation
flags, and the per-feature breakdown.  Hypothesis drives the whole shape
space a producer can emit — score maps over candidates of one vertex type,
optional feature scores covering every candidate, degraded results —
through an actual JSON round-trip.  What no producer emits (mixed member
types, a feature map missing a candidate) is rejected, pinned at the bottom.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import OutlierResult, ScoredVertex
from repro.hin.network import VertexId

vertex_types = st.sampled_from(["author", "paper", "venue", "term"])
finite_scores = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
names = st.text(min_size=1, max_size=12)
score_maps = vertex_types.flatmap(
    lambda member_type: st.dictionaries(
        st.builds(
            VertexId,
            type=st.just(member_type),
            index=st.integers(min_value=0, max_value=50),
        ),
        finite_scores,
        min_size=1,
        max_size=12,
    )
)
path_texts = st.sampled_from(
    ["author.paper.venue", "author.paper.term", "author.paper.author"]
)


@st.composite
def results(draw):
    scores = draw(score_maps)
    vertex_names = {
        vertex: draw(names, label=f"name[{vertex}]") for vertex in scores
    }
    degraded = draw(st.booleans())
    feature_scores = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                path_texts,
                st.fixed_dictionaries({vertex: finite_scores for vertex in scores}),
                min_size=1,
                max_size=3,
            ),
        )
    )
    return OutlierResult.from_scores(
        scores,
        vertex_names,
        top_k=draw(st.integers(min_value=1, max_value=15)),
        reference_count=draw(st.integers(min_value=0, max_value=100)),
        measure=draw(st.sampled_from(["netout", "pathsim", "cosine"])),
        feature_scores=feature_scores,
        degraded=degraded,
        degradation_reason=(
            draw(st.text(min_size=1, max_size=30)) if degraded else None
        ),
    )


class TestRoundTrip:
    @given(results())
    @settings(max_examples=150)
    def test_dict_round_trip_is_lossless(self, result):
        back = OutlierResult.from_dict(result.to_dict())
        assert back.outliers == result.outliers
        assert back.scores == result.scores
        assert back.candidate_count == result.candidate_count
        assert back.reference_count == result.reference_count
        assert back.measure == result.measure
        assert back.degraded == result.degraded
        assert back.degradation_reason == result.degradation_reason
        assert back.feature_scores == result.feature_scores

    @given(results())
    @settings(max_examples=100)
    def test_survives_actual_json(self, result):
        """The wire case: the payload must encode to JSON text and decode
        back without losing anything — what the HTTP frontend relies on."""
        back = OutlierResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.outliers == result.outliers
        assert back.scores == result.scores
        assert back.feature_scores == result.feature_scores

    @given(results())
    @settings(max_examples=50)
    def test_ranks_and_order_preserved(self, result):
        back = OutlierResult.from_dict(result.to_dict())
        assert [entry.rank for entry in back] == list(
            range(1, len(result) + 1)
        )
        assert back.names() == result.names()

    @given(results())
    @settings(max_examples=50)
    def test_stats_never_serialize(self, result):
        payload = result.to_dict()
        assert "stats" not in payload
        assert OutlierResult.from_dict(payload).stats is None


class TestContract:
    """One member type per result; every feature column covers every candidate."""

    SCORES = {VertexId("author", 0): 1.0, VertexId("author", 1): 2.0}
    NAMES = {VertexId("author", 0): "A", VertexId("author", 1): "B"}

    def test_mixed_member_types_rejected(self):
        scores = {VertexId("author", 0): 1.0, VertexId("venue", 0): 2.0}
        names = {vertex: "x" for vertex in scores}
        with pytest.raises(ValueError, match="one vertex type"):
            OutlierResult.from_scores(scores, names, top_k=1, reference_count=2)

    def test_ragged_feature_map_rejected(self):
        with pytest.raises(ValueError, match="do not cover"):
            OutlierResult.from_scores(
                self.SCORES,
                self.NAMES,
                top_k=1,
                reference_count=2,
                feature_scores={"author.paper.venue": {VertexId("author", 0): 1.0}},
            )

    def test_mixed_payload_rejected(self):
        payload = OutlierResult.from_scores(
            self.SCORES, self.NAMES, top_k=1, reference_count=2
        ).to_dict()
        payload["scores"][1][0] = "venue"
        with pytest.raises(ValueError, match="one vertex type"):
            OutlierResult.from_dict(payload)
