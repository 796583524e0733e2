"""Count gates for the columnar request path (set → Eq. 1 → top-k → JSON).

Counts, not timings: a per-candidate Python object creeping back between
set retrieval and ``json.dumps`` — a ``VertexId`` per candidate, a sort key
call per candidate, a generator stepping through a set — fails here on any
machine.  The same query shape runs against two candidate sets of different
sizes (both ≥ 300) and every count must be *equal*, and bounded by a small
multiple of ``TOP k``.
"""

import json
import sys

import pytest

from repro.core import results as results_module
from repro.datagen.synthetic import BibliographicNetworkGenerator, GeneratorConfig
from repro.engine import evaluator as evaluator_module
from repro.engine import executor as executor_module
from repro.hin.network import VertexId
from repro.service.handle import EngineHandle

TOP_K = 10
QUERY = (
    'FIND OUTLIERS FROM venue{{"{venue}"}}.paper.author.paper.author '
    "JUDGED BY author.paper.venue : 2.0, author.paper.author TOP 10;"
)
#: Call events are counted per source file: key functions, nested helpers
#: and generator resumptions all raise one where they are written.
WATCHED = {
    module.__file__: module.__name__.rsplit(".", 1)[-1]
    for module in (results_module, evaluator_module, executor_module)
}


@pytest.fixture(scope="module")
def handle():
    config = GeneratorConfig(
        num_communities=3,
        authors_per_community=250,
        venues_per_community=4,
        terms_per_community=40,
        common_terms=10,
        papers_per_community=500,
    )
    network = BibliographicNetworkGenerator(config, seed=42).build_network()
    return EngineHandle(network, strategy="pm", collect_stats=False)


def counted_request(handle, venue, monkeypatch):
    """Run one request to encoded JSON; return (result, text, counts)."""
    counts = {"VertexId": 0, **{name: 0 for name in WATCHED.values()}}
    original_init = VertexId.__init__

    def counting_init(self, *args, **kwargs):
        counts["VertexId"] += 1
        original_init(self, *args, **kwargs)

    def profiler(frame, event, _arg):
        if event == "call":
            name = WATCHED.get(frame.f_code.co_filename)
            if name is not None:
                counts[name] += 1

    with monkeypatch.context() as patch:
        patch.setattr(VertexId, "__init__", counting_init)
        sys.setprofile(profiler)
        try:
            result = handle.execute(QUERY.format(venue=venue))
            text = json.dumps(result.to_dict())
        finally:
            sys.setprofile(None)
    return result, text, counts


class TestNoPerCandidateObjects:
    def test_counts_do_not_depend_on_the_candidate_count(self, handle, monkeypatch):
        small, _, small_counts = counted_request(handle, "C2-Venue-3", monkeypatch)
        large, _, large_counts = counted_request(handle, "C0-Venue-0", monkeypatch)
        assert 300 <= small.candidate_count < large.candidate_count - 100
        assert len(small) == len(large) == TOP_K
        assert small_counts == large_counts
        # The anchor lookup and one vertex per ranked record.
        assert small_counts["VertexId"] <= TOP_K + 2
        assert all(count <= 4 * TOP_K for count in small_counts.values())

    def test_wire_triples_hold_builtins(self, handle, monkeypatch):
        """``json.dumps`` raises on an ``np.int64`` but silently accepts an
        ``np.float64``; pin the exact types of what it is handed."""
        result, _, _ = counted_request(handle, "C2-Venue-3", monkeypatch)
        payload = result.to_dict()
        columns = [payload["scores"], *payload["feature_scores"].values()]
        assert len(columns) == 3
        for column in columns:
            assert len(column) == result.candidate_count
            assert {tuple(map(type, triple)) for triple in column} == {
                (str, int, float)
            }
        for record in payload["outliers"]:
            assert type(record["vertex_index"]) is int
            assert type(record["score"]) is float

    def test_wire_equals_the_payload_rebuilt_from_the_views(self, handle, monkeypatch):
        result, text, _ = counted_request(handle, "C2-Venue-3", monkeypatch)

        def pack(scores):
            return [[v.type, v.index, s] for v, s in scores.items()]

        rebuilt = {
            "measure": result.measure,
            "candidate_count": result.candidate_count,
            "reference_count": result.reference_count,
            "degraded": result.degraded,
            "degradation_reason": result.degradation_reason,
            "outliers": result.to_records(),
            "scores": pack(result.scores),
            "feature_scores": {
                path_text: pack(per_path)
                for path_text, per_path in result.feature_scores.items()
            },
        }
        assert json.dumps(rebuilt) == text
