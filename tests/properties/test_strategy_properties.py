"""Property-based tests: all strategies compute identical NetOut scores on
randomly generated bibliographic networks.  (Their neighbor vectors are
checked against the definition in ``test_batched_materialization.py``,
which also uses the networks and paths defined here.)"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import QueryExecutor
from repro.engine.strategies import BaselineStrategy, PMStrategy, SPMStrategy
from repro.hin.bibliographic import BibliographicNetworkBuilder, Publication
from repro.metapath.metapath import MetaPath

# ----------------------------------------------------------------------
# Random small bibliographic networks
# ----------------------------------------------------------------------
author_pool = [f"A{i}" for i in range(8)]
venue_pool = [f"V{i}" for i in range(4)]
term_pool = [f"t{i}" for i in range(5)]

publications = st.builds(
    lambda key, authors, venue, terms: Publication(
        key=f"p{key}", authors=sorted(set(authors)), venue=venue, terms=sorted(set(terms))
    ),
    key=st.integers(0, 10_000),
    authors=st.lists(st.sampled_from(author_pool), min_size=1, max_size=3),
    venue=st.sampled_from(venue_pool),
    terms=st.lists(st.sampled_from(term_pool), min_size=1, max_size=3),
)


@st.composite
def networks(draw):
    records = draw(st.lists(publications, min_size=1, max_size=12, unique_by=lambda p: p.key))
    builder = BibliographicNetworkBuilder()
    builder.add_publications(records)
    return builder.build()


#: Lengths 0-5, odd tails included.
PATHS = [
    MetaPath.parse("author"),
    MetaPath.parse("author.paper"),
    MetaPath.parse("author.paper.venue"),
    MetaPath.parse("author.paper.author"),
    MetaPath.parse("author.paper.term.paper"),
    MetaPath.parse("author.paper.venue.paper.author"),
    MetaPath.parse("author.paper.term.paper.author.paper"),
]


class TestStrategyEquivalence:
    @given(networks())
    @settings(max_examples=25, deadline=None)
    def test_query_results_identical(self, network):
        anchor = network.vertex_names("author")[0]
        query = (
            f'FIND OUTLIERS FROM author{{"{anchor}"}}.paper.author '
            "JUDGED BY author.paper.venue TOP 5;"
        )
        rankings = []
        for strategy in (
            BaselineStrategy(network),
            PMStrategy(network),
            SPMStrategy(network, selected=list(network.vertices("author"))[:2]),
        ):
            result = QueryExecutor(strategy).execute(query)
            rankings.append([(e.name, round(e.score, 10)) for e in result])
        assert rankings[0] == rankings[1] == rankings[2]

    @given(networks())
    @settings(max_examples=25, deadline=None)
    def test_keep_all_subnetwork_is_identity(self, network):
        """Inducing with keep-everything predicates copies the network."""
        from repro.hin.subnetwork import induced_subnetwork

        copy = induced_subnetwork(network, {})
        for edge_type in network.schema.edge_types:
            left = network.adjacency(edge_type.source, edge_type.target)
            right = copy.adjacency(edge_type.source, edge_type.target)
            assert left.shape == right.shape
            assert (left != right).nnz == 0
        for vertex_type in network.schema.vertex_types:
            assert network.vertex_names(vertex_type) == copy.vertex_names(
                vertex_type
            )

    @given(networks())
    @settings(max_examples=25, deadline=None)
    def test_netout_self_reference_lower_bound(self, network):
        """Ω(v) ≥ 1 when Sr = Sc ∋ v and v has any venue paths."""
        anchor = network.vertex_names("author")[0]
        query = (
            f'FIND OUTLIERS FROM author{{"{anchor}"}}.paper.author '
            "JUDGED BY author.paper.venue TOP 50;"
        )
        result = QueryExecutor(BaselineStrategy(network)).execute(query)
        for vertex, score in result.scores.items():
            if score > 0:  # visible candidates only
                assert score >= 1.0 - 1e-9
