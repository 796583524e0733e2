"""Canonical query keys — the one normal form shared across the stack.

Three layers key on "the same query": the result cache (memoization slot),
the replica router (consistent-hash placement so a recurring query lands on
the replica whose caches are warm), and the adaptive workload recorder (hot
query mining).  All three MUST agree byte-for-byte, or a query routes to a
replica whose cache keys it differently and every hit turns into a miss —
so the canonicalization lives here, once, and the regression test in
``tests/service/test_keys.py`` pins the call sites together.

Canonicalization reuses the query language round-trip
(:func:`~repro.query.parser.parse_query` →
:func:`~repro.query.formatter.format_query`), the same normal form the
formatter's property tests guarantee re-parses identically.
"""

from __future__ import annotations

import json

from repro.query.ast import Query
from repro.query.formatter import format_query
from repro.query.parser import parse_query

__all__ = ["BODY_ERRORS", "canonical_query_key", "extract_query_text"]

#: Everything :func:`extract_query_text` raises for a malformed body.  Both
#: front doors catch exactly this and answer 400; an exception outside it
#: would kill the handler thread and drop the connection unanswered.
BODY_ERRORS = (ValueError, KeyError, TypeError)


def canonical_query_key(query: str | Query) -> str:
    """One canonical text per query meaning.

    Parses (when given text) and re-formats, so all textual spellings of
    the same query share a cache slot.  Raises
    :class:`~repro.exceptions.QueryError` for malformed queries — the
    service surfaces that as a client error *before* spending an admission
    slot.
    """
    ast = parse_query(query) if isinstance(query, str) else query
    return format_query(ast)


def extract_query_text(body: bytes) -> str:
    """The ``"query"`` string out of a ``POST /query`` JSON body.

    The one body-parsing rule both HTTP front doors (replica and router)
    apply, so a body one accepts is never rejected by the other.  Raises
    one of :data:`BODY_ERRORS`: ``UnicodeDecodeError`` for bytes that are
    not UTF-8 (or UTF-16/32) text, ``json.JSONDecodeError`` for malformed
    JSON (both are ``ValueError``), ``KeyError`` when the field is absent,
    and ``TypeError`` when the payload is not an object or the field is
    not a string.
    """
    payload = json.loads(body or b"{}")
    query_text = payload["query"]
    if not isinstance(query_text, str):
        raise TypeError("'query' must be a string")
    return query_text
