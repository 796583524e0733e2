"""Property tests for adaptive indexing: byte-identity is *invariant*.

Two randomized guarantees back the hot-swap design:

* **Cache transparency** — attaching a :class:`SubpathCache` to any
  strategy changes nothing about its output, byte for byte, on random
  bibliographic networks.  Path counts are small non-negative integers, so
  float64 sparse products are exact and reassociating ``(S@A₁)@A₂`` into
  cached segment products cannot drift.
* **Swap transparency** — executing a query, hot-swapping a freshly built
  workload-ranked SPM index into a live :class:`EngineHandle`, and
  executing again yields byte-identical ``to_dict()`` payloads, whatever
  the network or the selection.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.caching import SubpathCache
from repro.engine.index import build_spm_index
from repro.engine.strategies import BaselineStrategy, SPMStrategy
from repro.hin.bibliographic import BibliographicNetworkBuilder, Publication
from repro.metapath.metapath import MetaPath
from repro.service import EngineHandle

# ----------------------------------------------------------------------
# Random small bibliographic networks (same shape as the strategy props)
# ----------------------------------------------------------------------
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


PATHS = [
    MetaPath.parse("author.paper.venue"),
    MetaPath.parse("author.paper.author"),
    MetaPath.parse("author.paper.venue.paper.author"),
    MetaPath.parse("author.paper.term.paper.author"),
]

QUERIES = [
    "FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 3;",
    "FIND OUTLIERS FROM author JUDGED BY author.paper.author TOP 4;",
    "FIND OUTLIERS FROM venue JUDGED BY venue.paper.author TOP 2;",
]


def _bytes_of(matrix):
    matrix = matrix.tocsr().copy()
    matrix.sum_duplicates()
    matrix.sort_indices()
    matrix.eliminate_zeros()
    return (matrix.indices.tobytes(), matrix.data.tobytes(), matrix.shape)


class TestCacheTransparency:
    @given(networks(), st.sampled_from(PATHS))
    @settings(max_examples=30, deadline=None)
    def test_baseline_blocks_unchanged_by_cache(self, network, path):
        indices = [v.index for v in network.vertices(path.source)]
        plain = BaselineStrategy(network)
        cached = BaselineStrategy(network)
        cached.subpath_cache = SubpathCache(max_bytes=4 << 20)
        # Twice through the cached strategy: the second pass serves segment
        # products from the cache and must still match exactly.
        expected = _bytes_of(plain.neighbor_matrix(path, indices))
        assert _bytes_of(cached.neighbor_matrix(path, indices)) == expected
        assert _bytes_of(cached.neighbor_matrix(path, indices)) == expected

    @given(networks(), st.sampled_from(PATHS))
    @settings(max_examples=30, deadline=None)
    def test_spm_blocks_unchanged_by_cache(self, network, path):
        indices = [v.index for v in network.vertices(path.source)]
        selected = list(network.vertices(path.source))[::2]
        plain = SPMStrategy(network, selected=selected)
        cached = SPMStrategy(network, selected=selected)
        cached.subpath_cache = SubpathCache(max_bytes=4 << 20)
        expected = _bytes_of(plain.neighbor_matrix(path, indices))
        assert _bytes_of(cached.neighbor_matrix(path, indices)) == expected
        assert _bytes_of(cached.neighbor_matrix(path, indices)) == expected


class TestSwapTransparency:
    @given(networks(), st.sampled_from(QUERIES))
    @settings(max_examples=15, deadline=None)
    def test_scores_identical_across_hot_swap(self, network, query):
        handle = EngineHandle(network, strategy="spm", subpath_cache_mb=4.0)

        def wire(result):
            return json.dumps(result.to_dict(), sort_keys=True)

        batch = handle.execute_many([query])
        if batch.errors:
            return  # unservable on this random network either side of a swap
        before = wire(batch.results[0])

        # Re-plan around "every author queried": a selection that overlaps
        # and extends whatever the handle started with.
        ranked = list(network.vertices("author"))
        index, indexed = build_spm_index(network, ranked)
        assert indexed
        generation_before = handle.index_generation
        handle.swap_index(index)
        assert handle.index_generation == generation_before + 1

        assert wire(handle.execute_many([query]).results[0]) == before

    @given(networks())
    @settings(max_examples=15, deadline=None)
    def test_swap_then_cache_still_transparent(self, network):
        """After a swap, the attached sub-path cache (cleared by the
        version bump) keeps serving byte-identical answers."""
        query = QUERIES[0]
        ranked = list(network.vertices("author"))
        outcomes = []
        # Swap-then-execute per handle: the two handles share one network
        # object, and each swap bumps its version, staling the *other*
        # handle's index — so each one answers right after its own swap.
        for megabytes in (0.0, 4.0):
            handle = EngineHandle(
                network, strategy="spm", subpath_cache_mb=megabytes
            )
            index, _ = build_spm_index(network, ranked)
            handle.swap_index(index)
            batch = handle.execute_many([query])
            outcomes.append(
                (set(batch.errors), None)
                if batch.errors
                else (
                    set(),
                    json.dumps(batch.results[0].to_dict(), sort_keys=True),
                )
            )
        assert outcomes[0] == outcomes[1]
