"""Shared session fixtures for the benchmark harness.

Every bench file regenerates one of the paper's tables or figures.  The
benchmark databases, workloads, fitted methods, and end-to-end results are
built once per session and shared, so ``pytest benchmarks/ --benchmark-only``
runs the whole evaluation in a few minutes.

Scales are laptop-sized (see DESIGN.md): absolute numbers differ from the
paper's testbed, but the comparisons' *shape* is what each bench asserts
and prints.
"""

import json
import os
from pathlib import Path

import pytest

from repro.eval.harness import (
    default_methods,
    make_context,
    run_end_to_end,
)

STATS_SCALE = 0.15
IMDB_SCALE = 0.08


@pytest.fixture(scope="session")
def stats_ctx():
    return make_context("stats", scale=STATS_SCALE, seed=0, max_tables=6)


@pytest.fixture(scope="session")
def imdb_ctx():
    return make_context("imdb", scale=IMDB_SCALE, seed=0)


@pytest.fixture(scope="session")
def stats_results(stats_ctx):
    methods = default_methods("stats", fast=True)
    return run_end_to_end(stats_ctx, methods)


@pytest.fixture(scope="session")
def imdb_results(imdb_ctx):
    methods = default_methods("imdb", fast=True)
    return run_end_to_end(imdb_ctx, methods)


@pytest.fixture(scope="module")
def bench_report(request):
    """Write a bench module's gate measurements (its ``RESULTS`` dict) to
    the machine-readable report its ``REPORT = (env var, default path)``
    names, even on partial failure — CI uploads the file as an artifact
    either way.  Modules opt in with
    ``pytestmark = pytest.mark.usefixtures("bench_report")``."""
    yield
    module = request.module
    env_var, default_path = module.REPORT
    path = os.environ.get(env_var, default_path)
    payload = {"generated_by": f"benchmarks/{Path(module.__file__).name}",
               **module.RESULTS}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
