"""``repro report`` regenerates the committed ``benchmarks/results`` goldens.

The benchmark harness writes its artifacts at ``REPRO_BENCH_SCALE`` (default
0.2) through the same recorded-text composers in
:mod:`repro.analysis.targets` the CLI uses, so ``repro run``/``repro report``
at scale 0.2 must reproduce the committed ``benchmarks/results/*.txt`` files
byte-for-byte.  This pins that equality for the cheap targets (the
simulation-heavy fig4/fig5/fig6 are covered by the nightly benchmark run,
which itself goes through the shared composers).

Marked slow: the golden scale is benchmark scale, so this is seconds, not
milliseconds.
"""

import os

import pytest

from repro.analysis.runner import clear_caches
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")

#: The committed goldens were generated at the default benchmark scale.
GOLDEN_SCALE = "0.2"

#: (target, artifact) pairs cheap enough to regenerate inside the test suite.
CHEAP_TARGETS = [
    ("table1", "table1_inventory"),
    ("fig3", "fig3_appfit"),
    ("ablation-policies", "ablation_policies"),
    ("ablation-rates", "ablation_rate_sweep"),
]


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.slow
@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_report_reproduces_committed_goldens(tmp_path, parallelism):
    """run (cold) then report --strict (warm): both match the goldens exactly.

    Run serially and on a 2-worker pool, which builds each graph once ahead
    of the cells that read it.
    """
    out = str(tmp_path / "out")
    cache = str(tmp_path / "cache")
    names = [t for t, _ in CHEAP_TARGETS]
    assert main(["run", *names, "--scale", GOLDEN_SCALE, "--out", out, "--cache-dir", cache,
                 "--parallelism", parallelism, "-q"]) == 0

    rep = str(tmp_path / "report")
    assert (
        main(
            ["report", *names, "--scale", GOLDEN_SCALE, "--out", rep,
             "--cache-dir", cache, "--strict", "-q"]
        )
        == 0
    )

    for _, artifact in CHEAP_TARGETS:
        golden_path = os.path.join(GOLDEN_DIR, f"{artifact}.txt")
        with open(golden_path, encoding="utf-8") as fh:
            golden = fh.read()
        for directory in (out, rep):
            with open(os.path.join(directory, f"{artifact}.txt"), encoding="utf-8") as fh:
                produced = fh.read()
            assert produced == golden, f"{artifact}.txt drifted from the committed golden"
