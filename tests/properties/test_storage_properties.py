"""Property tests for the storage tiers: the mmap/out-of-core path is
*invisible* semantically.

Randomized guarantees behind the million-vertex tier:

* **Storage transparency** — a network copied onto ``storage="mmap"``
  serves byte-identical adjacency, and any PM index built over it (in-core
  or blocked, any block size, RAM- or file-backed store) holds
  byte-identical contents.  Path counts are small non-negative integers,
  exact in float64, and blocked row concatenation reproduces the in-core
  product rows exactly — no summation-order drift exists to find.
* **Score transparency** — :class:`OutlierResult` scores agree byte for
  byte across the full ``{ram,mmap} x {in-core,blocked}`` grid.
* **SPM admission equivalence** — at any block size and in either store the
  SPM build admits exactly the vertices the definition admits
  (all-or-nothing, hottest-first, first-overflow-stops), with the
  definition's rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.detector import OutlierDetector
from repro.engine.index import build_pm_index, build_spm_index
from repro.hin.bibliographic import BibliographicNetworkBuilder, Publication
from repro.hin.network import VertexId
from repro.hin.storage import MmapArrayStore
from tests.engine.test_outofcore_index import (
    _bytes_of,
    _definition_spm,
    _index_bytes,
)

author_pool = [f"A{i}" for i in range(8)]
venue_pool = [f"V{i}" for i in range(4)]
term_pool = [f"t{i}" for i in range(5)]

publications = st.builds(
    lambda key, authors, venue, terms: Publication(
        key=f"p{key}",
        authors=sorted(set(authors)),
        venue=venue,
        terms=sorted(set(terms)),
    ),
    key=st.integers(0, 10_000),
    authors=st.lists(st.sampled_from(author_pool), min_size=1, max_size=3),
    venue=st.sampled_from(venue_pool),
    terms=st.lists(st.sampled_from(term_pool), min_size=1, max_size=3),
)


@st.composite
def networks(draw):
    records = draw(
        st.lists(publications, min_size=2, max_size=12, unique_by=lambda p: p.key)
    )
    builder = BibliographicNetworkBuilder()
    builder.add_publications(records)
    return builder.build()


QUERIES = [
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;",
    "FIND OUTLIERS FROM author JUDGED BY author.paper.author TOP 4;",
    "FIND OUTLIERS FROM venue JUDGED BY venue.paper.author TOP 2;",
]


def _scores_bytes(network, index, strategy="pm"):
    detector = OutlierDetector(network, strategy=strategy, index=index)
    out = []
    for query in QUERIES:
        result = detector.detect(query)
        out.append(
            [(v, np.float64(s).tobytes()) for v, s in sorted(result.scores.items())]
        )
    return out


class TestStorageTransparency:
    @given(network=networks(), block_rows=st.integers(min_value=1, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_pm_grid_identical(self, network, block_rows, tmp_path_factory):
        mmap_net = network.copy_with_storage("mmap")
        # Adjacency itself must be byte-identical across tiers.
        for edge_type in network.schema.edge_types:
            ram = network.adjacency(edge_type.source, edge_type.target)
            mm = mmap_net.adjacency(edge_type.source, edge_type.target)
            assert _bytes_of(ram) == _bytes_of(mm)

        reference = build_pm_index(network)
        reference_bytes = _index_bytes(reference)
        store_dir = str(tmp_path_factory.mktemp("pm-store"))
        legs = {
            "ram/blocked": build_pm_index(network, block_rows=block_rows),
            "mmap/incore": build_pm_index(mmap_net),
            "mmap/blocked": build_pm_index(
                mmap_net,
                block_rows=block_rows,
                store=MmapArrayStore(store_dir),
            ),
        }
        for name, index in legs.items():
            assert _index_bytes(index) == reference_bytes, name

        reference_scores = _scores_bytes(network, reference)
        for name, (net, index) in {
            "ram/blocked": (network, legs["ram/blocked"]),
            "mmap/incore": (mmap_net, legs["mmap/incore"]),
            "mmap/blocked": (mmap_net, legs["mmap/blocked"]),
        }.items():
            assert _scores_bytes(net, index) == reference_scores, name

    @given(
        network=networks(),
        block_rows=st.integers(min_value=1, max_value=5),
        max_bytes=st.one_of(st.none(), st.integers(min_value=0, max_value=4000)),
    )
    @settings(max_examples=25, deadline=None)
    def test_spm_any_block_size_matches_definition(
        self, network, block_rows, max_bytes, tmp_path_factory
    ):
        ranked = [
            VertexId("author", v.index) for v in network.vertices("author")
        ] + [VertexId("venue", v.index) for v in network.vertices("venue")]
        expected, expected_admitted = _definition_spm(network, ranked, max_bytes)
        whole, admitted = build_spm_index(network, ranked, max_bytes=max_bytes)
        blocked, admitted_blocked = build_spm_index(
            network,
            ranked,
            max_bytes=max_bytes,
            block_rows=block_rows,
            store=MmapArrayStore(str(tmp_path_factory.mktemp("spm-store"))),
        )
        assert admitted == admitted_blocked == expected_admitted
        assert _index_bytes(whole) == _index_bytes(blocked) == expected
        if admitted:
            assert _scores_bytes(network, whole, strategy="spm") == _scores_bytes(
                network, blocked, strategy="spm"
            )
