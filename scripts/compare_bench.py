#!/usr/bin/env python3
"""Compare two BENCH_proxy.json files and fail on performance regressions.

Usage: compare_bench.py BASELINE CURRENT [--threshold PCT] [--p99-threshold PCT]

Scenarios are matched by (name, transport) — currently cold-cache,
warm-keepalive, warm-close, warm-concurrent, bench_stream, bench_mixed,
bench_peer and bench_scripted on threaded and reactor, plus the
reactor-splice rows (cold-cache, bench_stream, bench_mixed with the
event-loop origin splice enabled; the plain
reactor rows pin splice off so they keep measuring the worker-pool
offload path) — docs/BENCHMARKING.md describes each.  Two gates:

* throughput: a scenario slower than the baseline by more than
  --threshold (default 25%) fails the check;
* tail latency: a scenario whose p99_us grew by more than
  --p99-threshold (default 25%) fails the check.  Baselines recorded
  before latency fields existed (no p99_us key) are tolerated — the
  latency gate simply doesn't apply until a baseline carries them.

New scenarios (no baseline) and removed ones only inform.  CI wires
this against the previous successful run's artifact (see the "perf
trajectory" item in ROADMAP.md).
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for s in doc.get("scenarios", []):
        p99 = s.get("p99_us")
        out[(s["name"], s["transport"])] = {
            "rps": float(s["requests_per_sec"]),
            "p99_us": float(p99) if p99 is not None else None,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        help="maximum tolerated throughput drop, in percent (default 25)",
    )
    parser.add_argument(
        "--p99-threshold",
        type=float,
        default=25.0,
        help="maximum tolerated p99 latency increase, in percent (default 25)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []

    def fmt_p99(v):
        return f"{v:.0f}" if v is not None else "-"

    print(
        f"{'scenario':<18} {'transport':<10} {'baseline':>12} {'current':>12} "
        f"{'delta':>8} {'p99 base':>10} {'p99 cur':>10} {'p99 delta':>10}"
    )
    for key in sorted(baseline):
        name, transport = key
        base = baseline[key]
        if key not in current:
            print(
                f"{name:<18} {transport:<10} {base['rps']:>12.0f} {'(removed)':>12} "
                f"{'-':>8} {'-':>10} {'-':>10} {'-':>10}"
            )
            continue
        cur = current[key]
        delta_pct = (
            (cur["rps"] - base["rps"]) / base["rps"] * 100.0 if base["rps"] > 0 else 0.0
        )
        marker = ""
        if delta_pct < -args.threshold:
            failures.append(
                (name, transport, "throughput",
                 f"{base['rps']:.0f} -> {cur['rps']:.0f} rps ({delta_pct:+.1f}%)")
            )
            marker = "  << REGRESSION"

        # The p99 gate only applies when both sides recorded latency.
        p99_base, p99_cur = base["p99_us"], cur["p99_us"]
        p99_delta = "-"
        if p99_base is not None and p99_cur is not None and p99_base > 0:
            p99_delta_pct = (p99_cur - p99_base) / p99_base * 100.0
            p99_delta = f"{p99_delta_pct:+.1f}%"
            if p99_delta_pct > args.p99_threshold:
                failures.append(
                    (name, transport, "p99 latency",
                     f"{p99_base:.0f} -> {p99_cur:.0f} us ({p99_delta_pct:+.1f}%)")
                )
                marker = "  << REGRESSION"
        print(
            f"{name:<18} {transport:<10} {base['rps']:>12.0f} {cur['rps']:>12.0f} "
            f"{delta_pct:>+7.1f}% {fmt_p99(p99_base):>10} {fmt_p99(p99_cur):>10} "
            f"{p99_delta:>10}{marker}"
        )
    for key in sorted(set(current) - set(baseline)):
        name, transport = key
        print(
            f"{name:<18} {transport:<10} {'(new)':>12} {current[key]['rps']:>12.0f} "
            f"{'-':>8} {'-':>10} {fmt_p99(current[key]['p99_us']):>10} {'-':>10}"
        )

    if failures:
        print(
            f"\nFAIL: {len(failures)} regression(s) past the thresholds "
            f"(throughput {args.threshold:.0f}%, p99 {args.p99_threshold:.0f}%):",
            file=sys.stderr,
        )
        for name, transport, kind, detail in failures:
            print(f"  {name}/{transport} [{kind}]: {detail}", file=sys.stderr)
        return 1
    print(
        f"\nOK: no scenario regressed past the thresholds "
        f"(throughput {args.threshold:.0f}%, p99 {args.p99_threshold:.0f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
