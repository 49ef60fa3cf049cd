"""Paper reference values and qualitative checks.

The reproduction cannot (and does not try to) match the paper's absolute
numbers — the substrate is a simulator, the SDC rate constant is not published,
and footnote 3 of the paper omits the per-benchmark thresholds.  What must
hold is the *shape* of the results.  This module records the paper's headline
numbers and the qualitative claims the test suite checks against.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.experiments import Figure3Result, Figure4Result, ScalabilityResult

#: Headline numbers quoted in the paper (Section V-A and the abstract).
PAPER_REFERENCE: Dict[str, float] = {
    # Figure 3 averages.
    "fig3_task_percent_10x": 53.0,
    "fig3_time_percent_10x": 60.0,
    "fig3_task_percent_5x": 30.0,
    "fig3_time_percent_5x": 36.0,
    # Figure 4 average fault-free overhead of complete replication.
    "fig4_average_overhead_percent": 2.5,
}


def qualitative_checks(
    fig3: Figure3Result | None = None,
    fig4: Figure4Result | None = None,
    fig5: ScalabilityResult | None = None,
) -> List[str]:
    """Evaluate the paper's qualitative claims against measured results.

    Returns a list of human-readable failures (empty means every claim holds).
    """
    failures: List[str] = []

    if fig3 is not None:
        mult_high = max(fig3.averages) if fig3.averages else None
        mult_low = min(fig3.averages) if fig3.averages else None
        if mult_high is not None:
            avg_high = fig3.averages[mult_high]
            # Takeaway 1: complete replication is not required.
            if avg_high["task_fraction"] >= 0.999:
                failures.append(
                    "Figure 3: App_FIT replicated essentially all tasks at the "
                    "highest rate multiplier — complete replication should not be needed"
                )
            if mult_low is not None and mult_low != mult_high:
                avg_low = fig3.averages[mult_low]
                if avg_low["task_fraction"] > avg_high["task_fraction"] + 1e-9:
                    failures.append(
                        "Figure 3: lower error rates demanded more replication than higher rates"
                    )
        for row in fig3.rows:
            if not row["threshold_respected"]:
                failures.append(
                    f"Figure 3: benchmark {row['benchmark']} exceeded its FIT threshold "
                    f"at {row['multiplier']:.0f}x rates"
                )

    if fig4 is not None:
        if fig4.average_overhead_percent > 15.0:
            failures.append(
                "Figure 4: average replication overhead is far above the paper's "
                f"low-overhead claim ({fig4.average_overhead_percent:.1f}%)"
            )
        for row in fig4.rows:
            if row["overhead_percent"] < -1.0:
                failures.append(
                    f"Figure 4: negative overhead for {row['benchmark']} — "
                    "the baseline/replicated runs are inconsistent"
                )

    if fig5 is not None:
        benchmarks = {r["benchmark"] for r in fig5.rows}
        for bench in benchmarks:
            curve = fig5.curve(bench, fault_rate=0.0)
            if len(curve) >= 2:
                max_speedup = max(r["speedup"] for r in curve)
                max_cores = max(r["x"] for r in curve)
                if bench != "stream" and max_speedup < 0.3 * max_cores:
                    failures.append(
                        f"Figure 5: {bench} does not scale "
                        f"(speedup {max_speedup:.1f} on {max_cores} cores)"
                    )
                if bench == "stream" and max_speedup > 0.6 * max_cores:
                    failures.append(
                        "Figure 5: stream scales almost linearly, but the paper "
                        "(and its memory-bound nature) say it should not"
                    )
    return failures
