"""A triple store with HIN conversion for open-schema data.

A knowledge graph arrives as ``(subject, predicate, object)`` triples with
no fixed schema.  :class:`KnowledgeGraph` ingests triples, infers entity
types from ``type``-like predicates, and converts to a
:class:`~repro.hin.network.HeterogeneousInformationNetwork` in one of two
modes:

* **Reified** (default): every data predicate becomes a *statement* vertex
  type; a triple ``(s, p, o)`` materializes a statement vertex of type
  ``p`` linked to ``s`` and ``o``.  Meta-paths then spell out relations —
  ``person.acted_in.movie.has_genre.genre`` — which keeps distinct
  predicates between the same type pair distinguishable.
* **Direct**: triples become plain typed edges; predicates between the
  same (subject type, object type) pair merge.  Cheaper, lossier.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import Iterator, TextIO

from repro.exceptions import ReproError
from repro.hin.network import HeterogeneousInformationNetwork
from repro.hin.schema import NetworkSchema

__all__ = ["Triple", "KnowledgeGraph"]

#: Predicates treated as type declarations (case-insensitive).
TYPE_PREDICATES = frozenset({"type", "a", "rdf:type", "isa", "instance_of"})

_SANITIZE_PATTERN = re.compile(r"[^0-9a-zA-Z_]+")


def sanitize_identifier(text: str) -> str:
    """Coerce arbitrary predicate/type text into a Python identifier.

    >>> sanitize_identifier("acted in")
    'acted_in'
    >>> sanitize_identifier("rdf:type")
    'rdf_type'
    """
    cleaned = _SANITIZE_PATTERN.sub("_", text.strip()).strip("_")
    if not cleaned:
        raise ReproError(f"cannot derive an identifier from {text!r}")
    if cleaned[0].isdigit():
        cleaned = f"t_{cleaned}"
    return cleaned.lower()


@dataclass(frozen=True)
class Triple:
    """One (subject, predicate, object) statement."""

    subject: str
    predicate: str
    object: str


class KnowledgeGraph:
    """An open-schema triple store convertible to a HIN.

    Examples
    --------
    >>> kg = KnowledgeGraph()
    >>> kg.add("Tom", "type", "person")
    >>> kg.add("Heat", "type", "movie")
    >>> kg.add("Tom", "acted in", "Heat")
    >>> network = kg.to_hin()
    >>> network.schema.has_vertex_type("acted_in")
    True
    """

    def __init__(self, *, default_type: str = "entity") -> None:
        self._triples: list[Triple] = []
        self._types: dict[str, str] = {}
        self.default_type = sanitize_identifier(default_type)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, subject: str, predicate: str, object_: str) -> None:
        """Add one triple; ``type``-like predicates set the subject's type."""
        if not subject or not predicate or not object_:
            raise ReproError("triples need non-empty subject/predicate/object")
        if predicate.lower() in TYPE_PREDICATES:
            declared = sanitize_identifier(object_)
            existing = self._types.get(subject)
            if existing is not None and existing != declared:
                raise ReproError(
                    f"conflicting types for {subject!r}: {existing!r} vs "
                    f"{declared!r}"
                )
            self._types[subject] = declared
            return
        self._triples.append(Triple(subject, predicate, object_))

    @classmethod
    def from_text(cls, text: str | TextIO, *, default_type: str = "entity") -> "KnowledgeGraph":
        """Parse tab-separated triples, one per line (``#`` comments allowed)."""
        handle = io.StringIO(text) if isinstance(text, str) else text
        kg = cls(default_type=default_type)
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ReproError(
                    f"triple line {line_number}: expected 3 tab-separated "
                    f"fields, got {len(fields)}"
                )
            kg.add(*fields)
        return kg

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def triple_count(self) -> int:
        """Number of data triples (type declarations excluded)."""
        return len(self._triples)

    def triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def entity_type(self, entity: str) -> str:
        """The declared (or default) type of an entity."""
        return self._types.get(entity, self.default_type)

    def entities(self) -> set[str]:
        """Every entity mentioned as subject or object, or typed."""
        names = set(self._types)
        for triple in self._triples:
            names.add(triple.subject)
            names.add(triple.object)
        return names

    def predicates(self) -> set[str]:
        return {sanitize_identifier(t.predicate) for t in self._triples}

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_hin(self, *, reify_predicates: bool = True) -> HeterogeneousInformationNetwork:
        """Convert the graph into a HIN.

        See the module docstring for the two modes.  In reified mode a
        predicate name that collides with an entity type is rejected (it
        would make meta-paths ambiguous).
        """
        entity_types = {self.entity_type(e) for e in self.entities()}
        predicates = self.predicates()
        schema = NetworkSchema()
        for entity_type in sorted(entity_types):
            schema.add_vertex_type(entity_type)

        if reify_predicates:
            collision = entity_types & predicates
            if collision:
                raise ReproError(
                    f"predicate names collide with entity types: "
                    f"{sorted(collision)}; rename or use "
                    "reify_predicates=False"
                )
            for predicate in sorted(predicates):
                schema.add_vertex_type(predicate)
            for triple in self._triples:
                predicate = sanitize_identifier(triple.predicate)
                schema.add_edge_type(self.entity_type(triple.subject), predicate)
                schema.add_edge_type(predicate, self.entity_type(triple.object))
        else:
            for triple in self._triples:
                schema.add_edge_type(
                    self.entity_type(triple.subject),
                    self.entity_type(triple.object),
                )

        network = HeterogeneousInformationNetwork(schema)
        for entity in sorted(self.entities()):
            network.add_vertex(self.entity_type(entity), entity)

        for position, triple in enumerate(self._triples):
            subject = network.find_vertex(self.entity_type(triple.subject), triple.subject)
            object_ = network.find_vertex(self.entity_type(triple.object), triple.object)
            if reify_predicates:
                predicate = sanitize_identifier(triple.predicate)
                statement = network.add_vertex(
                    predicate, f"{triple.subject}|{predicate}|{triple.object}#{position}"
                )
                network.add_edge(subject, statement)
                network.add_edge(statement, object_)
            else:
                network.add_edge(subject, object_)
        return network
