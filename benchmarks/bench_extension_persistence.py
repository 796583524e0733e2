"""Extension bench — index persistence (offline build, ship, reload).

The PM index is built offline (§6.2) and, in any production deployment,
shipped between processes.  This bench measures save/load cost and on-disk
size for the benchmark corpus, and asserts reloads are result-identical.
"""

import time

import pytest

from repro.engine.executor import QueryExecutor
from repro.engine.index import build_pm_index
from repro.engine.index_io import load_index, save_index
from repro.engine.strategies import PMStrategy

QUERY = (
    'FIND OUTLIERS FROM author{"Prof. Hub"}.paper.author '
    "JUDGED BY author.paper.venue TOP 5;"
)


@pytest.fixture(scope="module")
def pm_index(bench_network):
    return build_pm_index(bench_network)


def test_save_timing(benchmark, pm_index, tmp_path_factory):
    benchmark.group = "extension-persistence"
    target = tmp_path_factory.mktemp("save")

    def save():
        save_index(pm_index, target / "index")

    benchmark.pedantic(save, rounds=1, iterations=1)


def test_load_timing(benchmark, pm_index, tmp_path_factory):
    benchmark.group = "extension-persistence"
    target = tmp_path_factory.mktemp("load") / "index"
    save_index(pm_index, target)
    index = benchmark.pedantic(load_index, args=(target,), rounds=1, iterations=1)
    assert index.size_bytes() == pm_index.size_bytes()


def test_persistence_report(benchmark, bench_network, pm_index, tmp_path_factory, report):
    target = tmp_path_factory.mktemp("report") / "index"

    def cycle():
        start = time.perf_counter()
        save_index(pm_index, target)
        save_seconds = time.perf_counter() - start
        start = time.perf_counter()
        index = load_index(target)
        load_seconds = time.perf_counter() - start
        disk_bytes = sum(f.stat().st_size for f in target.iterdir())
        return index, save_seconds, load_seconds, disk_bytes

    index, save_seconds, load_seconds, disk_bytes = benchmark.pedantic(
        cycle, rounds=1, iterations=1
    )

    original = QueryExecutor(PMStrategy(bench_network, index=pm_index)).execute(QUERY)
    reloaded = QueryExecutor(PMStrategy(bench_network, index=index)).execute(QUERY)

    lines = [
        "PM index persistence on the benchmark corpus",
        "",
        f"in-memory index size : {pm_index.size_bytes() / 1e6:8.2f} MB "
        "(CSR accounting)",
        f"on-disk size         : {disk_bytes / 1e6:8.2f} MB (raw array store)",
        f"save time            : {save_seconds * 1e3:8.1f} ms",
        f"load time            : {load_seconds * 1e3:8.1f} ms",
        "",
        f"reload is result-identical: {original.names() == reloaded.names()}",
    ]
    report("extension_persistence", "\n".join(lines))

    assert original.names() == reloaded.names()
    assert disk_bytes > 0
