"""Property: the columnar top-k equals its definition.

``OutlierResult.from_columns`` selects the head with ``np.partition`` plus
the tie closure and sorts only that.  The definition is the full sort:
``sorted(zip(scores, names, vertices))[:k]``.  Scores are drawn from a
*small* set so ties are the norm (including ``0.0`` against ``-0.0``, which
compare equal and must fall through to the name), names repeat, and ``k``
straddles the candidate count.

Scores are finite here on purpose: every measure in ``src/`` guards its
denominators, and a NaN has no defined rank under the definition either —
``sorted`` on it is order-dependent.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.results import OutlierResult
from repro.hin.network import VertexId

SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0000000000000002, 2.5, -3.0])
NAMES = st.sampled_from(["Ann", "Bob", "Cy", "ann", ""])


@st.composite
def columns(draw):
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=60), min_size=1, max_size=30, unique=True
        )
    )
    count = len(indices)
    scores = draw(st.lists(SCORES, min_size=count, max_size=count))
    names = {index: draw(NAMES) for index in indices}
    top_k = draw(st.sampled_from(sorted({1, max(count - 1, 1), count, count + 5})))
    return indices, scores, names, top_k


class TestTopK:
    @given(columns())
    # The tie closure is the whole candidate set: every score ties.
    @example(
        ([4, 1, 3, 0], [0.0, -0.0, 0.0, -0.0], {0: "b", 1: "b", 3: "a", 4: "a"}, 1)
    )
    @settings(max_examples=300)
    def test_equals_full_sort(self, case):
        indices, scores, names, top_k = case
        result = OutlierResult.from_columns(
            "author", indices, scores, names, top_k=top_k, reference_count=len(indices)
        )
        expected = sorted(
            zip(scores, (names[index] for index in indices), indices)
        )[:top_k]
        assert [
            (entry.score, entry.name, entry.vertex) for entry in result
        ] == [
            (score, name, VertexId("author", index))
            for score, name, index in expected
        ]
        assert [entry.rank for entry in result] == list(range(1, len(expected) + 1))
        # 0.0 and -0.0 compare equal above; the sign must survive too.
        assert [str(entry.score) for entry in result] == [
            str(score) for score, _, _ in expected
        ]

    @given(columns())
    @settings(max_examples=100)
    def test_mapping_entry_ranks_through_the_same_routine(self, case):
        indices, scores, names, top_k = case
        vertices = [VertexId("author", index) for index in indices]
        from_mapping = OutlierResult.from_scores(
            dict(zip(vertices, scores)),
            {vertex: names[vertex.index] for vertex in vertices},
            top_k=top_k,
            reference_count=len(indices),
        )
        from_arrays = OutlierResult.from_columns(
            "author", indices, scores, names, top_k=top_k, reference_count=len(indices)
        )
        assert from_mapping.outliers == from_arrays.outliers
        assert from_mapping.to_dict() == from_arrays.to_dict()
