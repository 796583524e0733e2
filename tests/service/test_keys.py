"""Tests for :mod:`repro.service.keys` — the one canonical-key helper.

The result cache (replica side) and the consistent-hash router (fleet
side) must agree on the canonical form of a query, or routing affinity
silently stops lining up with cache locality.  This suite pins that
contract: both call sites import the *same* helper, and equivalent query
spellings collapse to one key everywhere.
"""

from __future__ import annotations

import json

import pytest

from repro.query.parser import parse_query
from repro.service import cache as cache_module
from repro.service import http as http_module
from repro.service import router as router_module
from repro.service.keys import BODY_ERRORS, canonical_query_key, extract_query_text

#: Distinct spellings of the same logical query: whitespace, case of
#: keywords, and pre-parsed form must all collapse to one canonical key.
EQUIVALENT_SPELLINGS = [
    'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;",
    'FIND   OUTLIERS   FROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3;",
    'find outliers from author{"Zoe"}.paper.author '
    "judged by author.paper.venue top 3;",
    '\n FIND OUTLIERS\tFROM author{"Zoe"}.paper.author '
    "JUDGED BY author.paper.venue TOP 3 ;",
]


class TestCanonicalQueryKey:
    def test_equivalent_spellings_share_one_key(self):
        keys = {canonical_query_key(text) for text in EQUIVALENT_SPELLINGS}
        assert len(keys) == 1

    def test_accepts_parsed_queries(self):
        text = EQUIVALENT_SPELLINGS[0]
        assert canonical_query_key(parse_query(text)) == canonical_query_key(
            text
        )

    def test_distinct_queries_get_distinct_keys(self):
        base = canonical_query_key(EQUIVALENT_SPELLINGS[0])
        other = canonical_query_key(
            'FIND OUTLIERS FROM author{"Zoe"}.paper.author '
            "JUDGED BY author.paper.venue TOP 4;"
        )
        assert base != other

    def test_cache_and_router_share_the_helper(self):
        """Regression for the pre-refactor duplicate: the replica cache and
        the router must canonicalize through the *same* function object."""
        assert cache_module.canonical_query_key is canonical_query_key
        assert router_module.canonical_query_key is canonical_query_key

    def test_cache_and_router_agree_on_every_spelling(self):
        for text in EQUIVALENT_SPELLINGS:
            assert cache_module.canonical_query_key(
                text
            ) == router_module.canonical_query_key(text)


class TestExtractQueryText:
    def test_roundtrip(self):
        text = EQUIVALENT_SPELLINGS[0]
        body = json.dumps({"query": text}).encode("utf-8")
        assert extract_query_text(body) == text

    def test_malformed_json_is_json_error(self):
        with pytest.raises(json.JSONDecodeError):
            extract_query_text(b"not json at all")

    def test_missing_query_field_is_key_error(self):
        with pytest.raises(KeyError):
            extract_query_text(b"{}")
        # An empty body reads as an empty object, not a JSON error.
        with pytest.raises(KeyError):
            extract_query_text(b"")

    def test_non_string_query_is_type_error(self):
        with pytest.raises(TypeError):
            extract_query_text(b'{"query": 42}')
        with pytest.raises(TypeError):
            extract_query_text(b'{"query": ["FIND", "OUTLIERS"]}')

    @pytest.mark.parametrize(
        "body", [b'{"query": "\xff"}', b"\xff\xfe\x00"], ids=["utf8", "utf16"]
    )
    def test_undecodable_bytes_are_a_body_error(self, body):
        with pytest.raises(UnicodeDecodeError) as excinfo:
            extract_query_text(body)
        assert isinstance(excinfo.value, BODY_ERRORS)

    def test_both_front_doors_catch_the_same_errors(self):
        """Regression: each front door caught its own triple, which missed
        ``UnicodeDecodeError`` and dropped the connection unanswered."""
        assert http_module.BODY_ERRORS is BODY_ERRORS
        assert router_module.BODY_ERRORS is BODY_ERRORS
