"""Benchmark-suite pytest hooks: ``--trace-dir PATH``, ``--live-html``,
and ``--profile``.

``pytest benchmarks/ --trace-dir out/`` makes every figure benchmark export
its observability record (``<name>.events.jsonl`` + ``<name>.trace.json``
Chrome trace) and its ``BENCH_<name>.json`` result file into ``PATH``
via :func:`benchmarks._harness.finish_bench`.  Adding ``--live-html``
also writes a self-contained ``<name>.explorer.html`` run explorer per
benchmark (the artifact CI attaches to the perf gate).  Without
``--trace-dir``, JSON results land in the working directory and trace
export is skipped.
"""

import pytest

from benchmarks import _harness


def pytest_addoption(parser):
    """Register ``--trace-dir PATH`` and ``--live-html`` for the suite."""
    parser.addoption(
        "--trace-dir",
        action="store",
        default=None,
        metavar="PATH",
        help="directory to write observability traces and BENCH_*.json "
        "result files into",
    )
    parser.addoption(
        "--live-html",
        action="store_true",
        default=False,
        help="also export a self-contained <name>.explorer.html run "
        "explorer per benchmark (requires --trace-dir)",
    )
    parser.addoption(
        "--profile",
        action="store_true",
        default=False,
        help="install the self-profiler around every benchmark: "
        "stamps a profile section (throughput, category fractions) "
        "into BENCH_*.json and, with --trace-dir, writes "
        "<name>.profile.json and a <name>.flame.svg flamegraph",
    )


@pytest.fixture(autouse=True)
def _trace_dir(request):
    """Point the harness at the session's ``--trace`` directory and
    drop any runtime remembered from a previous test (so a benchmark
    without its own runtime never exports a stale trace)."""
    _harness.LAST_RUNTIME = None
    _harness.set_trace_dir(request.config.getoption("--trace-dir"))
    _harness.set_live_html(request.config.getoption("--live-html"))
    _harness.set_profile(request.config.getoption("--profile"))
    yield
    _harness.set_trace_dir(None)
    _harness.set_live_html(False)
    _harness.set_profile(False)
