#!/usr/bin/env python3
"""Soft benchmark-regression check for suite --bench reports.

Compares the fresh report (e.g. BENCH_PR4.json) against a committed
baseline (e.g. BENCH_PR3.json) and prints a verdict per metric. The
check is *soft*: CI wall-clock numbers are noisy, so regressions are
reported as warnings and the script always exits 0. The hard gates
(byte-identity of result documents) live in the suite binary itself.

Usage: bench_regression.py CURRENT.json BASELINE.json
"""

import json
import sys

# Wall-clock comparisons tolerate this much slowdown before warning.
NOISE_TOLERANCE = 0.25

# The fast kernel must beat the cycle kernel by at least this factor on
# the mostly-idle workload...
LOWUTIL_MIN_SPEEDUP = 2.0
# ...and must not cost more than 5% at saturation.
SATURATED_MIN_RATIO = 0.95

# Saturated hot-path throughput (cycles/sec per protocol, the `hot`
# section) may drop this far against the baseline before warning.
HOT_NOISE_TOLERANCE = 0.25

# Fleet gates (the `fleet` section, PR-9). The SoA lockstep fleet must
# beat the summed scalar cycle-kernel runs of the same lanes by at
# least this factor on the saturated long-burst probe (the PR-9
# acceptance target; measured ~12x), with every lane hard-asserted
# byte-identical to its scalar run inside the suite binary.
FLEET_MIN_SPEEDUP = 5.0
# Aggregate lane throughput may drop this far against the baseline
# before warning (same noise budget as the hot lineup).
FLEET_NOISE_TOLERANCE = 0.25

# Fleet grouped-arbitration gates (the `fleet_arb` section, PR-10).
# The flagship 5-protocol 64-word probe, now with every lane lowered
# into an SoA decision kernel and back-to-back tenures fused inside one
# poll-legality window, must beat the PR-9 baseline's aggregate fleet
# speedup by this factor (target ≈16.8x over the recorded 11.2x).
FLEET_ARB_MIN_GAIN_OVER_BASELINE = 1.5
# The TDMA lane pack — identically-configured wheels sharing one SoA
# table, replayed by the arithmetic slot-position walk — must beat its
# summed scalar runs at all (measured ~9x; the floor only asserts the
# pack is a win, since single-word grants cap the batching payoff).
FLEET_ARB_TDMA_MIN_SPEEDUP = 1.0

# Analytic-model gates (the `analytic` section, PR-8). Validation-grid
# error ceilings leave headroom over the measured quick-suite numbers
# (share max ~0.014 / mean ~0.003; latency rel max ~0.51 / mean ~0.16 —
# the worst latency cells are TDMA, whose slot-alignment wait is an
# upper bound) without letting the model drift into a different regime.
#
# The share-max ceiling is deliberately tight: the committed quick
# (60k-cycle) window measures 0.0141 — the oft-quoted 0.0068 is the
# full 200k-cycle window's number, not a drifted one (both PR-8 and
# PR-9 artifacts record identical 0.0141 digits) — and 0.02 means a
# silent doubling of the quick-window error trips the gate instead of
# hiding under a slack ceiling.
ANALYTIC_MAX_SHARE_ABS_ERROR = 0.02
ANALYTIC_MEAN_SHARE_ABS_ERROR = 0.02
ANALYTIC_MAX_LATENCY_REL_ERROR = 1.0
ANALYTIC_MEAN_LATENCY_REL_ERROR = 0.40
# The search probe must cover at least a million design points...
ANALYTIC_MIN_SEARCH_POINTS = 1_000_000
# ...inside the PR-8 acceptance wall-clock bound (measured ~0.1s).
ANALYTIC_MAX_SEARCH_WALL_SECS = 5.0
# The validation grid must keep comparing a healthy number of cells —
# a shrinking grid would hollow the error ceilings out silently.
ANALYTIC_MIN_SHARE_CELLS = 50
ANALYTIC_MIN_LATENCY_CELLS = 15


def load(path):
    with open(path) as handle:
        return json.load(handle)


def check_analytic(analytic, warn):
    """Gate the analytic model's validation-grid error and search probe."""
    validation = analytic.get("validation", {})
    for key, ceiling in (
        ("share_max_abs_error", ANALYTIC_MAX_SHARE_ABS_ERROR),
        ("share_mean_abs_error", ANALYTIC_MEAN_SHARE_ABS_ERROR),
        ("latency_max_rel_error", ANALYTIC_MAX_LATENCY_REL_ERROR),
        ("latency_mean_rel_error", ANALYTIC_MEAN_LATENCY_REL_ERROR),
    ):
        value = validation.get(key)
        if value is None:
            warn(f"analytic.validation lacks {key}")
        elif value > ceiling:
            warn(f"analytic {key} is {value:.4f} (ceiling {ceiling:.2f})")
        else:
            print(f"ok: analytic {key} {value:.4f} <= {ceiling:.2f}")
    for key, floor in (
        ("share_cells", ANALYTIC_MIN_SHARE_CELLS),
        ("latency_cells", ANALYTIC_MIN_LATENCY_CELLS),
    ):
        value = validation.get(key)
        if value is None:
            warn(f"analytic.validation lacks {key}")
        elif value < floor:
            warn(f"analytic validation grid has only {value} {key} (floor {floor})")
        else:
            print(f"ok: analytic validation grid compares {value} {key}")

    search = analytic.get("search", {})
    points = search.get("points")
    wall = search.get("wall_secs")
    if points is None or wall is None:
        warn("analytic.search lacks points/wall_secs")
        return
    if points < ANALYTIC_MIN_SEARCH_POINTS:
        warn(
            f"analytic search scanned {points} points "
            f"(floor {ANALYTIC_MIN_SEARCH_POINTS})"
        )
    elif wall > ANALYTIC_MAX_SEARCH_WALL_SECS:
        warn(
            f"analytic search took {wall:.3f}s for {points} points "
            f"(ceiling {ANALYTIC_MAX_SEARCH_WALL_SECS:.1f}s)"
        )
    else:
        print(
            f"ok: analytic search scanned {points} points in {wall:.3f}s "
            f"({points / max(wall, 1e-12) / 1e6:.1f}M points/s, single-threaded)"
        )


def check_fleet(fleet, baseline_fleet, warn):
    """Gate the fleet probe's exactness flag and aggregate speedup."""
    if fleet.get("lane_exact") is not True:
        warn("fleet.lane_exact is not true")
    speedup = fleet.get("aggregate_speedup")
    lanes = fleet.get("lanes", "?")
    if speedup is None:
        warn("fleet section lacks aggregate_speedup")
    elif speedup < FLEET_MIN_SPEEDUP:
        warn(
            f"fleet aggregate speedup is {speedup:.2f}x over {lanes} lanes "
            f"(want >= {FLEET_MIN_SPEEDUP:.1f}x vs independent scalar runs)"
        )
    else:
        print(f"ok: fleet aggregate speedup {speedup:.2f}x over {lanes} lanes (lane-exact)")

    now = fleet.get("lane_cycles_per_sec")
    if now is None:
        warn("fleet section lacks lane_cycles_per_sec")
        return
    was = (baseline_fleet or {}).get("lane_cycles_per_sec")
    if was is None:
        print(f"info: fleet {now / 1e6:.2f}M lane-cycles/s (no baseline)")
    elif was > 0 and now < was * (1 - FLEET_NOISE_TOLERANCE):
        warn(f"fleet throughput regressed: {was / 1e6:.2f}M -> {now / 1e6:.2f}M lane-cycles/s")
    else:
        print(f"ok: fleet {was / 1e6:.2f}M -> {now / 1e6:.2f}M lane-cycles/s")


def check_fleet_arb(fleet_arb, baseline, warn):
    """Gate the grouped-arbitration fleet probes (PR-10).

    The flagship probe must hold a >=1.5x gain over the *baseline
    report's* plain fleet speedup; the TDMA pack must beat its summed
    scalar runs at all. Pre-PR10 baselines still carry the plain
    `fleet` section this compares against.
    """
    probe = fleet_arb.get("probe", {})
    speedup = probe.get("aggregate_speedup")
    if probe.get("lane_exact") is not True:
        warn("fleet_arb.probe.lane_exact is not true")
    if probe.get("lanes_lowered") != probe.get("lanes"):
        warn(
            f"fleet_arb probe lowered only {probe.get('lanes_lowered')} of "
            f"{probe.get('lanes')} lanes into SoA kernels"
        )
    baseline_speedup = ((baseline or {}).get("fleet") or {}).get("aggregate_speedup")
    if speedup is None:
        warn("fleet_arb.probe lacks aggregate_speedup")
    elif baseline_speedup is None:
        print(f"info: fleet_arb probe {speedup:.2f}x aggregate (no fleet baseline)")
    elif speedup < baseline_speedup * FLEET_ARB_MIN_GAIN_OVER_BASELINE:
        warn(
            f"fleet_arb probe aggregate speedup is {speedup:.2f}x "
            f"(want >= {FLEET_ARB_MIN_GAIN_OVER_BASELINE:.1f}x the baseline's "
            f"{baseline_speedup:.2f}x = {baseline_speedup * FLEET_ARB_MIN_GAIN_OVER_BASELINE:.2f}x)"
        )
    else:
        print(
            f"ok: fleet_arb probe {speedup:.2f}x aggregate >= "
            f"{FLEET_ARB_MIN_GAIN_OVER_BASELINE:.1f}x baseline {baseline_speedup:.2f}x"
        )

    tdma = fleet_arb.get("tdma", {})
    tdma_speedup = tdma.get("aggregate_speedup")
    if tdma.get("lane_exact") is not True:
        warn("fleet_arb.tdma.lane_exact is not true")
    if tdma_speedup is None:
        warn("fleet_arb.tdma lacks aggregate_speedup")
    elif tdma_speedup < FLEET_ARB_TDMA_MIN_SPEEDUP:
        warn(
            f"fleet_arb tdma pack aggregate speedup is {tdma_speedup:.2f}x "
            f"(want > {FLEET_ARB_TDMA_MIN_SPEEDUP:.1f}x vs summed scalar runs)"
        )
    else:
        kernels = tdma.get("kernels", "?")
        print(
            f"ok: fleet_arb tdma pack {tdma_speedup:.2f}x aggregate over "
            f"{tdma.get('lanes', '?')} lanes sharing {kernels} wheel kernel(s)"
        )


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 0
    current = load(argv[1])
    try:
        baseline = load(argv[2])
    except OSError as error:
        print(f"note: no baseline ({error}); skipping wall-clock comparison")
        baseline = None

    warnings = 0

    def warn(message):
        nonlocal warnings
        warnings += 1
        print(f"WARNING: {message}")

    if baseline is not None:
        for key in (
            "serial_wall_secs",
            "parallel_wall_secs",
            "metrics_serial_wall_secs",
            "scenario_suite_wall_secs",
        ):
            if key not in current or key not in baseline:
                continue
            was, now = baseline[key], current[key]
            if was > 0 and now > was * (1 + NOISE_TOLERANCE):
                warn(f"{key} regressed: {was:.3f}s -> {now:.3f}s")
            else:
                print(f"ok: {key} {was:.3f}s -> {now:.3f}s")

    # Scenario-suite bench documents carry only wall-clock keys; the
    # kernel and hot-path sections below apply to suite --bench reports.
    is_suite_report = any(
        key in current for key in ("kernel_lowutil", "kernel_saturated", "hot")
    )
    if not is_suite_report:
        if warnings:
            print(f"{warnings} warning(s); soft check, exiting 0")
        else:
            print("benchmark comparison clean")
        return 0

    lowutil = current.get("kernel_lowutil", {}).get("speedup")
    if lowutil is None:
        warn("report lacks kernel_lowutil.speedup (old report format?)")
    elif lowutil < LOWUTIL_MIN_SPEEDUP:
        warn(
            f"fast kernel speedup on the low-utilization workload is {lowutil:.2f}x "
            f"(want >= {LOWUTIL_MIN_SPEEDUP:.1f}x)"
        )
    else:
        print(f"ok: fast kernel low-utilization speedup {lowutil:.2f}x")

    saturated = current.get("kernel_saturated", {}).get("speedup")
    if saturated is None:
        warn("report lacks kernel_saturated.speedup (old report format?)")
    elif saturated < SATURATED_MIN_RATIO:
        warn(
            f"fast kernel is {saturated:.2f}x at saturation "
            f"(slower than the {SATURATED_MIN_RATIO:.2f}x floor)"
        )
    else:
        print(f"ok: fast kernel saturated ratio {saturated:.2f}x")

    suite = current.get("kernel_suite_speedup")
    if suite is not None:
        print(f"info: whole-suite fast-kernel speedup {suite:.2f}x")

    analytic = current.get("analytic")
    if analytic is None:
        # Pre-PR8 reports (e.g. the PR7 baseline re-checked in CI) have
        # no analytic section; only warn for fresh reports that should.
        print("note: report has no analytic section (pre-PR8 format)")
    else:
        check_analytic(analytic, warn)

    fleet = current.get("fleet")
    if fleet is None:
        # Pre-PR9 reports (e.g. the PR8 baseline re-checked in CI) have
        # no fleet section; only warn for fresh reports that should.
        print("note: report has no fleet section (pre-PR9 format)")
    else:
        check_fleet(fleet, (baseline or {}).get("fleet"), warn)

    fleet_arb = current.get("fleet_arb")
    if fleet_arb is None:
        # Pre-PR10 reports (e.g. the PR9 baseline re-checked in CI)
        # have no grouped-arbitration section; note and skip.
        print("note: report has no fleet_arb section (pre-PR10 format)")
    else:
        check_fleet_arb(fleet_arb, baseline, warn)

    hot = current.get("hot", {}).get("protocols")
    if hot is None:
        warn("report lacks the hot-path lineup (old report format?)")
    else:
        baseline_hot = (baseline or {}).get("hot", {}).get("protocols", {})
        for name, probe in hot.items():
            now = probe.get("cycles_per_sec")
            if now is None:
                warn(f"hot.{name} lacks cycles_per_sec")
                continue
            was = baseline_hot.get(name, {}).get("cycles_per_sec")
            if was is None:
                print(f"info: hot {name} {now / 1e6:.2f}M cycles/s (no baseline)")
            elif was > 0 and now < was * (1 - HOT_NOISE_TOLERANCE):
                warn(
                    f"hot {name} regressed: {was / 1e6:.2f}M -> {now / 1e6:.2f}M cycles/s"
                )
            else:
                print(f"ok: hot {name} {was / 1e6:.2f}M -> {now / 1e6:.2f}M cycles/s")

    if warnings:
        print(f"{warnings} warning(s); soft check, exiting 0")
    else:
        print("benchmark comparison clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
