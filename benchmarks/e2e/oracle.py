"""The reference answers, computed in a process of their own.

    python oracle.py <full|smoke> <workload> <seed> <out.json>

The oracle executes each distinct request over neighbor vectors taken
straight from the definition — row ``v`` of the product of the path's
adjacency matrices — with no index, no row cache and no result cache.
It materialises whole path products (hundreds of MB on the ad-hoc paths),
and ``VmHWM`` is a lifetime high-water mark, so it must never run inside
the workload process: ``peak_rss_mb`` would report the oracle's footprint
instead of the serving stack's.  It runs here, as a child that ends before
the first set-up starts, and hands back one digest per answer by file.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from pathlib import Path

__all__ = ["answer_digest", "expected_answers"]


def answer_digest(result: dict) -> str:
    """blake2b of the canonical (sorted-keys) JSON of a decoded ``result`` object.

    ``result`` is in wire form (what ``json.loads`` returns).  Floats
    survive a JSON round trip exactly, so two result objects have the same
    digest exactly when they are equal.
    """
    canonical = json.dumps(result, sort_keys=True).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def expected_answers(network, texts: list[str]) -> tuple[list[str], str]:
    """The digest of the oracle's answer to every query, and the digest of all.

    Answers go through a JSON round trip first (tuples become lists), so
    they are digested in the form an HTTP client decodes.  The overall
    digest covers the answers' digests in request order.
    """
    from repro.engine.executor import QueryExecutor
    from repro.engine.strategies import MaterializationStrategy
    from repro.metapath.materialize import materialize

    class DefinitionStrategy(MaterializationStrategy):
        name = "definition"

        def __init__(self, network) -> None:
            super().__init__(network)
            self._full: dict = {}

        def _materialize_block(self, path, vertex_indices, stats):
            if path not in self._full:
                full = materialize(self.network, path)
                full.sort_indices()  # once, instead of on every slice
                self._full[path] = full
            return self._full[path][vertex_indices]

        def neighbor_row(self, path, vertex_index, stats=None):
            return self._materialize_block(path, [vertex_index], stats)

    oracle = QueryExecutor(DefinitionStrategy(network), collect_stats=False)
    overall = hashlib.blake2b(digest_size=16)
    answers = []
    for text in texts:
        wire = json.loads(json.dumps(oracle.execute(text).to_dict()))
        answers.append(answer_digest(wire))
        overall.update(answers[-1].encode("ascii"))
    return answers, overall.hexdigest()


def main(argv: list[str]) -> int:
    from workloads import SIZES, WORKLOADS, distinct_requests

    size_name, workload_name, seed, out = argv
    sizes = SIZES[size_name]
    distinct = distinct_requests(WORKLOADS[workload_name], sizes, int(seed))
    # Written by this checkout's own corpus build (workloads.build_corpus).
    network = pickle.loads(sizes.pickle_path.read_bytes())
    answers, digest = expected_answers(network, [request.text for request in distinct])
    out_path = Path(out)
    tmp = out_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": digest, "answers": answers}), encoding="utf-8")
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
