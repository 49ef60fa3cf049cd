"""Pytest root configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on offline machines where ``pip install -e .`` cannot resolve build
dependencies); an installed copy takes precedence if present.

Also provides the suite-wide test conveniences:

* ``--reference`` — run every experiment driver on the scalar reference path,
  serially (equivalent to ``REPRO_REFERENCE=1 REPRO_PARALLELISM=1``);
* the ``quick``/``slow`` markers — everything outside ``benchmarks/`` is
  auto-marked ``quick`` so ``pytest -m quick`` is a sub-30-second smoke run;
* ``REPRO_PARALLELISM=2`` when unset, so drivers called without a worker
  count run the same code on a 1-core and a many-core machine;
* hypothesis profiles — the default ``repro`` profile caps examples at 30,
  the ``quick`` profile (loaded automatically under ``-m quick``, or via
  ``HYPOTHESIS_PROFILE=quick``) at 5, and the ``nightly`` profile
  (``HYPOTHESIS_PROFILE=nightly``, the nightly sanitizer step's) at 1,000.
"""

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from hypothesis import HealthCheck, settings  # noqa: E402  (needs src path set up)

settings.register_profile(
    "repro",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "quick",
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def pytest_addoption(parser):
    parser.addoption(
        "--reference",
        action="store_true",
        default=False,
        help="run experiment drivers on the scalar reference path, serially "
        "(disables the vectorized fast path and the process pool)",
    )


def pytest_configure(config):
    os.environ.setdefault("REPRO_PARALLELISM", "2")
    config.addinivalue_line("markers", "quick: fast test, part of `pytest -m quick`")
    config.addinivalue_line("markers", "slow: benchmark-scale test, excluded from the quick run")
    # libcst (pulled in by hypothesis' codemod machinery) triggers this on 3.11.
    config.addinivalue_line(
        "filterwarnings",
        "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning",
    )

    markexpr = (config.getoption("-m", default="") or "").strip()
    profile = os.environ.get(
        "HYPOTHESIS_PROFILE", "quick" if markexpr == "quick" else "repro"
    )
    settings.load_profile(profile)

    if config.getoption("--reference"):
        from repro.analysis.runner import configure_defaults

        configure_defaults(fast=False, parallelism=1)


def pytest_collection_modifyitems(config, items):
    slow_marker = pytest.mark.slow
    quick_marker = pytest.mark.quick
    bench_dir = os.sep + "benchmarks" + os.sep
    for item in items:
        if bench_dir in str(item.fspath):
            item.add_marker(slow_marker)
        if "slow" not in item.keywords:
            item.add_marker(quick_marker)
