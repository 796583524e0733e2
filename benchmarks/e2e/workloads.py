"""The frozen inputs of the benchmark: corpus, request generators, workloads.

Everything here is part of the yardstick.  The corpus config, the query
texts and the sampling scheme are frozen: changing any of them changes
what every number in the ledger means, so it restarts the ledger (see
README.md).  ``--seed`` drives only the draws made here; the program under
test sees nothing but the generated query texts.

Sampling is *stratified*: a request's cost is set almost entirely by the
size of its candidate set (a venue's 2-hop author set spans 71..3009
vertices in this corpus), so anchors are sorted by that size, cut into
equal strata, and each seed draws inside every stratum.  Two seeds then
ask about different vertices but send the same mix of cheap and dear
requests, which is what lets medians of different seeds be compared.
"""

from __future__ import annotations

import json
import os
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "DEFAULT_SEED",
    "FULL",
    "SMOKE",
    "Request",
    "Sizes",
    "Workload",
    "SIZES",
    "WORKLOADS",
    "build_corpus",
    "distinct_requests",
    "generate_requests",
]

OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """One scale of the benchmark: the real one, or the self-tests' smoke one."""

    name: str
    generator: dict
    setups: int
    passes: int
    ego_per_template: int
    venue_strata: int
    hot_distinct_ego: int
    hot_distinct_venue: int
    hot_draws: int
    adhoc_anchors: int

    @property
    def corpus_path(self) -> Path:
        return OUT_DIR / f"corpus_{self.name}.json"

    @property
    def meta_path(self) -> Path:
        return OUT_DIR / f"meta_{self.name}.json"

    @property
    def pickle_path(self) -> Path:
        """The corpus as a pickled network: what the oracle child loads.

        Unpickling takes 0.04 s where ``load_json`` takes 1.4 s, on every
        run.  The program under test is only ever given the JSON file.
        """
        return OUT_DIR / f"corpus_{self.name}.pickle"

    def oracle_path(self, workload: str, seed: int) -> Path:
        return OUT_DIR / f"oracle_{self.name}_{workload}_{seed}.json"


FULL = Sizes(
    name="full",
    generator=dict(
        num_communities=15,
        authors_per_community=250,
        venues_per_community=12,
        terms_per_community=200,
        common_terms=50,
        papers_per_community=1200,
    ),
    setups=3,
    passes=5,
    ego_per_template=300,
    venue_strata=20,
    hot_distinct_ego=48,
    hot_distinct_venue=16,
    hot_draws=512,
    adhoc_anchors=250,
)

SMOKE = Sizes(
    name="smoke",
    generator=dict(
        num_communities=3,
        authors_per_community=60,
        venues_per_community=6,
        terms_per_community=40,
        common_terms=10,
        papers_per_community=200,
    ),
    setups=2,
    passes=2,
    ego_per_template=12,
    venue_strata=3,
    hot_distinct_ego=6,
    hot_distinct_venue=2,
    hot_draws=24,
    adhoc_anchors=10,
)

SIZES = {sizes.name: sizes for sizes in (FULL, SMOKE)}

#: Seed of the corpus generator (the paper's year); not the workload seed.
CORPUS_SEED = 2015


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------
def build_corpus(sizes: Sizes) -> None:
    """Generate the corpus and its sampling metadata under ``out/``.

    The metadata lists every usable anchor with the size of the candidate
    set it leads to, sorted by that size — the request generators sample
    from it without loading the network.
    """
    import numpy as np

    from repro.datagen.synthetic import (
        EgoNetworkSpec,
        GeneratorConfig,
        hub_ego_corpus,
    )
    from repro.hin.io import save_json

    network = hub_ego_corpus(
        GeneratorConfig(**sizes.generator), EgoNetworkSpec(seed=CORPUS_SEED)
    ).network
    author_paper = network.adjacency("author", "paper")
    paper_venue = network.adjacency("paper", "venue")
    paper_term = network.adjacency("paper", "term")
    author_venue = (author_paper @ paper_venue).tocsr()
    author_term = (author_paper @ paper_term).tocsr()
    coauthors = (author_paper @ author_paper.T).tocsr()
    venue_author = author_venue.T.tocsr()
    venue_two_hop = (venue_author @ coauthors).tocsr()
    venue_peers = (author_venue @ venue_author).tocsr()

    def row_sizes(matrix) -> "np.ndarray":
        return np.diff(matrix.indptr)

    author_names = network.vertex_names("author")
    # An anchor is usable when every template's candidate set is non-empty
    # (no operation of the benchmark may fail).
    usable = (row_sizes(author_venue) > 0) & (row_sizes(author_term) > 0)
    authors = sorted(
        (int(row_sizes(coauthors)[i]), int(row_sizes(venue_peers)[i]), author_names[i])
        for i in range(len(author_names))
        if usable[i]
    )
    venue_names = network.vertex_names("venue")
    venues = sorted(
        (int(row_sizes(venue_two_hop)[i]), venue_names[i])
        for i in range(len(venue_names))
        if row_sizes(venue_two_hop)[i] > 0
    )
    meta = {
        # [coauthor count, venue-peer count, name], sorted by coauthor count.
        "authors": [list(entry) for entry in authors],
        # [2-hop author count, name], sorted by it.
        "venues": [list(entry) for entry in venues],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # The corpus file is written last and renamed into place: its presence
    # is what tells a later run that the build finished.
    meta_tmp = sizes.meta_path.with_suffix(".tmp")
    meta_tmp.write_text(json.dumps(meta), encoding="utf-8")
    os.replace(meta_tmp, sizes.meta_path)
    pickle_tmp = sizes.pickle_path.with_suffix(".tmp")
    pickle_tmp.write_bytes(pickle.dumps(network, protocol=pickle.HIGHEST_PROTOCOL))
    os.replace(pickle_tmp, sizes.pickle_path)
    corpus_tmp = sizes.corpus_path.with_suffix(".tmp")
    save_json(network, corpus_tmp)
    os.replace(corpus_tmp, sizes.corpus_path)


def load_meta(sizes: Sizes) -> dict:
    return json.loads(sizes.meta_path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Request:
    """One ``POST /query``: the query text and its encoded JSON body."""

    text: str
    body: bytes = field(repr=False)

    @classmethod
    def of(cls, text: str) -> "Request":
        return cls(text, json.dumps({"query": text}).encode("utf-8"))


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _stratified(pool: list, strata: int, per_stratum: int, rng: random.Random) -> list[list]:
    """``per_stratum`` distinct draws from each of ``strata`` equal cuts of ``pool``.

    ``pool`` is sorted by cost, so every stratum holds anchors of similar
    cost; the result keeps the strata apart (cheapest first).
    """
    bounds = [round(i * len(pool) / strata) for i in range(strata + 1)]
    return [
        rng.sample(pool[low:high], per_stratum)
        for low, high in zip(bounds, bounds[1:])
    ]


# The paper's Table 4 templates, verbatim (frozen here on purpose: an edit
# to repro.query.templates must not silently change the workload).
_EGO_TEMPLATES = (
    "FIND OUTLIERS FROM author{{{anchor}}}.paper.author\n"
    "JUDGED BY author.paper.venue\nTOP 10;",
    "FIND OUTLIERS IN author{{{anchor}}}.paper.venue\n"
    "JUDGED BY venue.paper.term\nTOP 10;",
    "FIND OUTLIERS IN author{{{anchor}}}.paper.term\n"
    "JUDGED BY term.paper.venue\nTOP 10;",
)

_VENUE_FEATURES = "JUDGED BY author.paper.venue: 2, author.paper.term TOP 10;"
_VENUE_FORMS = (
    "FIND OUTLIERS FROM venue{{{v}}}.paper.author.paper.author " + _VENUE_FEATURES,
    "FIND OUTLIERS FROM venue{{{v}}}.paper.author.paper.author AS A "
    "WHERE COUNT(A.paper) >= 3 " + _VENUE_FEATURES,
    "FIND OUTLIERS FROM venue{{{v}}}.paper.author "
    "COMPARED TO venue{{{v}}}.paper.author.paper.author " + _VENUE_FEATURES,
    "FIND OUTLIERS FROM venue{{{v}}}.paper.author.paper.author "
    "UNION venue{{{w}}}.paper.author " + _VENUE_FEATURES,
)

#: Share of the venues (smallest 2-hop sets first) the venue forms draw from:
#: part of the workload's definition.  Over the whole range (71..3009
#: authors) a request averages 52 calibrated ms and a run yields too few
#: samples for a p95; this half (71..1058) averages 28 ms.
VENUE_POOL_SHARE = 0.5
#: Share of the authors (fewest venue peers first) the ad-hoc anchors draw
#: from: part of the workload's definition (see ``_adhoc_onthefly``).
ADHOC_POOL_SHARE = 0.9

_ADHOC_TEMPLATE = (
    "FIND OUTLIERS FROM author{{{anchor}}}.paper.venue.paper.author "
    "JUDGED BY author.paper.term.paper.author TOP 10;"
)


def _ego_texts(meta: dict, per_template: int, rng: random.Random) -> list[str]:
    names = [name for _, _, name in meta["authors"]]
    texts = []
    for template in _EGO_TEMPLATES:
        for (name,) in _stratified(names, per_template, 1, rng):
            texts.append(template.format(anchor=_quote(name)))
    rng.shuffle(texts)
    return texts


def _venue_rounds(
    meta: dict, strata: int, rounds: int, rng: random.Random
) -> list[list[str]]:
    """``rounds`` lists of one request per stratum, cheapest stratum first.

    Round ``r`` asks stratum ``s`` with form ``(r + s) % 4`` — a Latin
    square, so every round holds every form and every size in the same
    proportions, and a stretch of one round's length is a fair sample of
    the whole list wherever a timed pass happens to cut it.
    """
    names = [name for _, name in meta["venues"]]
    names = names[: round(len(names) * VENUE_POOL_SHARE)]
    # The UNION form's second venue is the stratum's next draw.
    drawn = _stratified(names, strata, max(rounds, 2), rng)
    return [
        [
            _VENUE_FORMS[(turn + number) % len(_VENUE_FORMS)].format(
                v=_quote(stratum[turn]), w=_quote(stratum[(turn + 1) % len(stratum)])
            )
            for number, stratum in enumerate(drawn)
        ]
        for turn in range(rounds)
    ]


def _ego_mix(meta: dict, sizes: Sizes, rng: random.Random) -> list[Request]:
    return [Request.of(t) for t in _ego_texts(meta, sizes.ego_per_template, rng)]


def _venue_wide(meta: dict, sizes: Sizes, rng: random.Random) -> list[Request]:
    texts = []
    for turn in _venue_rounds(meta, sizes.venue_strata, len(_VENUE_FORMS), rng):
        rng.shuffle(turn)
        texts.extend(turn)
    return [Request.of(text) for text in texts]


def _apportion(weights: list[float], total: int) -> list[int]:
    """Whole-number shares of ``total`` proportional to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    counts = [int(weight * scale) for weight in weights]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: counts[i] - weights[i] * scale
    )
    for position in by_remainder[: total - sum(counts)]:
        counts[position] += 1
    return counts


def _hot_session(meta: dict, sizes: Sizes, rng: random.Random) -> list[Request]:
    ego = _ego_texts(meta, sizes.hot_distinct_ego // len(_EGO_TEMPLATES), rng)
    (venue,) = _venue_rounds(meta, sizes.hot_distinct_venue, 1, rng)
    # Popularity ranks: every fourth rank is a venue form, cheapest stratum
    # first, whatever the seed.  The Zipf head decides the session's cost —
    # a reply under one TCP segment stalls ~40 ms, a larger one does not —
    # so which kind and size of query sits at which rank is fixed, and each
    # rank gets exactly its Zipf(1.1) share of the session.  The seed picks
    # the vertices asked about and the phase of each query's repeats.
    ranked = []
    while ego or venue:
        ranked.extend(ego[:3])
        ranked.extend(venue[:1])
        ego, venue = ego[3:], venue[1:]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ranked))]
    # A query's repeats are spread evenly over the session, so any stretch
    # of it holds the ranks in (nearly) their Zipf proportions — a timed
    # pass may stop anywhere.
    slots = [
        ((phase + repeat) / count, Request.of(text))
        for text, count in zip(ranked, _apportion(weights, sizes.hot_draws))
        for phase in [rng.random()]
        for repeat in range(count)
    ]
    slots.sort(key=lambda slot: slot[0])
    return [request for _, request in slots]


def _adhoc_onthefly(meta: dict, sizes: Sizes, rng: random.Random) -> list[Request]:
    names = [name for _, _, name in sorted(meta["authors"], key=lambda e: (e[1], e[2]))]
    # The best-connected authors share a venue with up to 3 332 others; one
    # such request allocates ~150 MB and would set both p95 and peak RSS.
    names = names[: round(len(names) * ADHOC_POOL_SHARE)]
    texts = [
        _ADHOC_TEMPLATE.format(anchor=_quote(name))
        for (name,) in _stratified(names, sizes.adhoc_anchors, 1, rng)
    ]
    rng.shuffle(texts)
    return [Request.of(text) for text in texts]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A named traffic mix plus the deployment it is served by.

    ``config`` overrides fields of ``ServiceConfig(workers=1,
    backend="thread")``; everything else stays at the ``repro serve``
    defaults.  ``digest`` pins the blake2b of the canonical result JSON of
    the distinct requests of :data:`DEFAULT_SEED` at :data:`FULL` size.
    """

    name: str
    why: str
    generate: object = field(repr=False)
    strategy: str = "pm"
    config: dict = field(default_factory=dict)
    keep_alive: bool = False
    #: Hits are the point of the workload: never invalidate the result cache.
    keep_cache: bool = False
    digest: str = ""


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ego_mix",
            why="paper Table 4 Q1-Q3 on small ego sets over fresh connections: "
            "fixed per-request costs (connect, HTTP, parse, hand-offs) dominate",
            generate=_ego_mix,
            digest="c236f0baa9689ba4958b803db5de8565",
        ),
        Workload(
            name="venue_wide",
            why="venue-wide 2-hop candidate sets with two feature paths: "
            "materialization, row cache, scoring and 10-150 KB JSON bodies dominate",
            generate=_venue_wide,
            digest="4888b99232a6bb03b96cb6ee1dc5864f",
        ),
        Workload(
            name="hot_session",
            why="Zipf repeats on one keep-alive connection, every request a "
            "result-cache hit: the session path a one-shot-client gain must not cost",
            generate=_hot_session,
            config=dict(cache_ttl_seconds=None),
            keep_alive=True,
            keep_cache=True,
            digest="fa14f613aeb596c496ac7362340c2811",
        ),
        Workload(
            name="adhoc_onthefly",
            why="never-indexed length-4 paths on the baseline strategy, no index, no "
            "result or sub-path cache: the no-index set-up, and the row cache as all "
            "that stands between a request and on-the-fly products",
            generate=_adhoc_onthefly,
            strategy="baseline",
            config=dict(subpath_cache_mb=0, cache_max_entries=0),
            digest="ffbfbcb6b902a5974209a7497a088c6a",
        ),
    )
}


def generate_requests(workload: Workload, sizes: Sizes, seed: int) -> list[Request]:
    """The request list of ``workload`` for ``seed`` (same seed, same bytes)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.generate(load_meta(sizes), sizes, rng)


def distinct_requests(workload: Workload, sizes: Sizes, seed: int) -> list[Request]:
    """The distinct requests of the list, in first-use order (what is verified)."""
    return list(dict.fromkeys(generate_requests(workload, sizes, seed)))


if __name__ == "__main__":
    import sys

    build_corpus(SIZES[sys.argv[1]])
