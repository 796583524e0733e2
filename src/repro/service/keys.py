"""Canonical query keys — the one normal form shared across the stack.

Two layers key on "the same query": the result cache (memoization slot)
and the adaptive workload recorder (hot query mining).  Both MUST agree
byte-for-byte, or the recorder mines hot queries under keys the cache never
serves — so the canonicalization lives here, once, and the regression test
in ``tests/service/test_keys.py`` pins the call sites together.

Canonicalization reuses the query language round-trip
(:func:`~repro.query.parser.parse_query` →
:func:`~repro.query.formatter.format_query`), the same normal form the
formatter's property tests guarantee re-parses identically.  A request's
text is parsed once, by :func:`query_ast`: the service keys its caches with
that AST's canonical text and hands the AST itself to a thread backend.
"""

from __future__ import annotations

import json

from repro.query.ast import Query
from repro.query.formatter import format_query
from repro.query.parser import parse_query

__all__ = ["BODY_ERRORS", "canonical_query_key", "extract_query_text", "query_ast"]

#: Everything :func:`extract_query_text` raises for a malformed body.  The
#: HTTP front door catches exactly this and answers 400; an exception outside
#: it would kill the handler thread and drop the connection unanswered.
BODY_ERRORS = (ValueError, KeyError, TypeError)


def query_ast(query: str | Query) -> Query:
    """``query`` as an AST: parsed when given text, else itself.

    Raises :class:`~repro.exceptions.QueryError` for malformed text — the
    service surfaces that as a client error *before* spending an admission
    slot.
    """
    return parse_query(query) if isinstance(query, str) else query


def canonical_query_key(query: str | Query) -> str:
    """One canonical text per query meaning.

    Parses (when given text) and re-formats, so all textual spellings of
    the same query share a cache slot.  Raises
    :class:`~repro.exceptions.QueryError` for malformed queries.
    """
    return format_query(query_ast(query))


def extract_query_text(body: bytes) -> str:
    """The ``"query"`` string out of a ``POST /query`` JSON body.

    Raises one of :data:`BODY_ERRORS`: ``UnicodeDecodeError`` for bytes
    that are not UTF-8 (or UTF-16/32) text, ``json.JSONDecodeError`` for
    malformed JSON (both are ``ValueError``), ``KeyError`` when the field
    is absent, and ``TypeError`` when the payload is not an object or the
    field is not a string.
    """
    payload = json.loads(body or b"{}")
    query_text = payload["query"]
    if not isinstance(query_text, str):
        raise TypeError("'query' must be a string")
    return query_text
