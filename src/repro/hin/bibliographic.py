"""DBLP-style bibliographic network construction.

The paper's running example is a bibliographic HIN with vertex types
``author`` (A), ``paper`` (P), ``venue`` (V), ``term`` (T), where each
publication record generates P-A, P-V, and P-T links.  This module provides
a :class:`Publication` record and a builder that expands records into the
network, mirroring how the paper builds its DBLP/AMiner network.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import NetworkError
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import bibliographic_schema

__all__ = [
    "AUTHOR",
    "PAPER",
    "VENUE",
    "TERM",
    "Publication",
    "BibliographicNetworkBuilder",
    "tokenize_title",
]

AUTHOR = "author"
PAPER = "paper"
VENUE = "venue"
TERM = "term"

# Short stop-word list for title tokenization; enough to keep generated
# term vocabularies meaningful without pulling in NLP dependencies.
_STOP_WORDS = frozenset(
    """a an and are as at be by for from in into is it of on or that the
    this to toward towards using via with""".split()
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9][a-z0-9-]*")


def tokenize_title(title: str) -> list[str]:
    """Lower-case, split, and stop-word-filter a paper title into terms.

    >>> tokenize_title("Mining Outliers in Large Networks")
    ['mining', 'outliers', 'large', 'networks']
    """
    tokens = _TOKEN_PATTERN.findall(title.lower())
    return [t for t in tokens if t not in _STOP_WORDS]


@dataclass
class Publication:
    """One publication record: the unit that generates HIN links.

    Attributes
    ----------
    key:
        Unique paper key (becomes the ``paper`` vertex name).
    authors:
        Author names, in byline order.
    venue:
        Venue name, or ``None`` for missing data.  Missing venues are
        materialized as the sentinel vertex ``"NULL"`` — the paper's Table 5
        shows exactly this artifact surfacing as a top outlier.
    title:
        Optional title; tokenized into ``term`` vertices.
    terms:
        Explicit term list; used instead of tokenizing ``title`` when given.
    year:
        Optional publication year, stored as a paper attribute.
    """

    key: str
    authors: Sequence[str]
    venue: str | None = None
    title: str = ""
    terms: Sequence[str] = field(default_factory=tuple)
    year: int | None = None

    def term_list(self) -> list[str]:
        if self.terms:
            return list(self.terms)
        return tokenize_title(self.title)


class BibliographicNetworkBuilder:
    """Builds a bibliographic HIN from :class:`Publication` records.

    Parameters
    ----------
    null_venue_name:
        Vertex name used for records with a missing venue.  Set to ``None``
        to skip the venue link entirely instead.

    Examples
    --------
    >>> builder = BibliographicNetworkBuilder()
    >>> builder.add_publication(Publication("p1", ["Ava", "Liam"], "KDD",
    ...                                     title="Graph mining"))
    >>> net = builder.build()
    >>> net.num_vertices("author")
    2
    """

    def __init__(self, null_venue_name: str | None = "NULL") -> None:
        self._network = HeterogeneousInformationNetwork(bibliographic_schema())
        self._null_venue_name = null_venue_name

    def add_publication(self, publication: Publication) -> None:
        """Expand one publication record into P-A, P-V, and P-T links."""
        if not publication.authors:
            raise NetworkError(f"publication {publication.key!r} has no authors")
        attributes = {}
        if publication.year is not None:
            attributes["year"] = publication.year
        if publication.title:
            attributes["title"] = publication.title
        paper = self._network.add_vertex(PAPER, publication.key, attributes)
        for author_name in publication.authors:
            author = self._network.add_vertex(AUTHOR, author_name)
            self._network.add_edge(paper, author)
        venue_name = publication.venue
        if venue_name is None:
            venue_name = self._null_venue_name
        if venue_name is not None:
            venue = self._network.add_vertex(VENUE, venue_name)
            self._network.add_edge(paper, venue)
        for term_name in publication.term_list():
            term = self._network.add_vertex(TERM, term_name)
            self._network.add_edge(paper, term)

    def add_publications(self, publications: Iterable[Publication]) -> None:
        for publication in publications:
            self.add_publication(publication)

    def build(self) -> HeterogeneousInformationNetwork:
        """Return the assembled bibliographic network."""
        return self._network
