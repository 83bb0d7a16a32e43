#!/usr/bin/env python3
"""Helpers around the perfbench command. Run from the repository root.

  python3 perfbench/tools.py steady [--runs 10] [--seconds S] [--workloads a,b]
      Two sets of runs per workload, on two disjoint seed ranges. Prints each
      end-to-end metric's median, quartiles and spread (interquartile range
      over median) against its bound, how far the second set's median moved
      from the first's, and how many runs the host's steal marked noisy; and
      the same figures, ungated, for the wall-time median and tail of the
      info line.

  python3 perfbench/tools.py selftest
      Plants one fault per correctness check (a flipped word of the expected
      kv_serve store, a flipped byte of a kv_record / kv_replay container)
      and confirms each run reports every operation failed, exits 0 and does
      not panic; then confirms a clean run reports none.

  python3 perfbench/tools.py reference [--runs 3] [--seconds S] [--workloads a,b]
      Reference figures: pthreads, DThreads, without("pipeline_commit"),
      without("fast_sched"), the default pinned to one CPU (taskset), and the
      traced run's overhead, as medians over seeds.

Runs use the command in BENCHMARK.json, so they build the benchmark first.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def run(workload, seed, seconds, trace=0, extra=(), prefix=()):
    """One benchmark run; returns (result, info) from its last two lines."""
    cmd = list(prefix) + BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"run failed ({p.returncode}): {' '.join(cmd)}\n{p.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def workloads(arg):
    names = [w["name"] for w in BENCH["workloads"]]
    return arg.split(",") if arg else names


def steady(args):
    metrics = BENCH["end_to_end"]
    ok = True
    for w in workloads(args.workloads):
        sets = []
        for base in (args.seed, args.seed + 1000):
            rows = []
            for i in range(args.runs):
                res, info = run(w, base + i, args.seconds)
                rows.append((res, info))
                print(f"  {w} seed {base + i}: samples {info['samples']} "
                      f"kept {info['wall_samples']} steal {info['steal_pct']}% "
                      f"p50 {info['wall_ms_p50']:.4g} ms "
                      f"p{info['tail_percentile']} {info['wall_ms_tail']:.4g} ms "
                      f"failed {res['failed']}/{res['attempted']}", file=sys.stderr)
            sets.append(rows)
        print(f"\n{w}: {args.runs} runs x 2 seed sets, {args.seconds} s each")
        print(f"  {'metric':<16}{'bound':>7}{'median1':>12}{'q1':>11}{'q3':>11}"
              f"{'spread1':>9}{'median2':>12}{'spread2':>9}{'worse2':>8}  verdict")
        # Wall times are printed for comparison but have no bound: they are
        # not end-to-end metrics of the benchmark.
        wall = [{"name": n, "bound": None, "better": "lower"}
                for n in ("wall_ms_p50", "wall_ms_tail")]
        for m in metrics + wall:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for rows in sets:
                vals = [i[name] if bound is None else r["metrics"][name]["value"]
                        for r, i in rows]
                q1, q2, q3 = quartiles(vals)
                meds.append((q1, q2, q3))
                spreads.append((q3 - q1) / q2 if q2 else float("inf"))
            worse = (meds[1][1] - meds[0][1]) / meds[0][1] if meds[0][1] else 0.0
            if m["better"] == "higher":
                worse = -worse
            if bound is None:
                print(f"  {name:<16}{'-':>7}{meds[0][1]:>12.5g}{meds[0][0]:>11.5g}"
                      f"{meds[0][2]:>11.5g}{spreads[0]:>8.1%} {meds[1][1]:>12.5g}"
                      f"{spreads[1]:>8.1%} {worse:>+7.1%}  not gated (info line)")
                continue
            verdict = []
            for s in spreads:
                if name != "setup_s" and s > bound:
                    verdict.append("SPREAD>BOUND")
                elif name != "setup_s" and s > bound / 3:
                    verdict.append("spread>bound/3")
            if worse > bound:
                verdict.append("DRIFT>BOUND")
            ok &= not any(v.isupper() for v in verdict)
            print(f"  {name:<16}{bound:>7.2f}{meds[0][1]:>12.5g}{meds[0][0]:>11.5g}"
                  f"{meds[0][2]:>11.5g}{spreads[0]:>8.1%} {meds[1][1]:>12.5g}"
                  f"{spreads[1]:>8.1%} {worse:>+7.1%}  {' '.join(verdict) or 'ok'}")
        shares = {r["failed"] / r["attempted"] for rows in sets for r, _ in rows}
        steal = [i["steal_pct"] for rows in sets for _, i in rows]
        noisy = sum(i["noisy_host"] for rows in sets for _, i in rows)
        samples = [i["samples"] for rows in sets for _, i in rows]
        print(f"  failed share {sorted(shares)}; samples {min(samples)}-{max(samples)}; "
              f"steal {min(steal)}-{max(steal)}% ({noisy} noisy runs)")
        ok &= len(shares) == 1
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def selftest(args):
    cases = [
        ("kv_serve", "store-word", True),
        ("kv_record", "container-byte", True),
        ("kv_replay", "container-byte", True),
        ("kv_serve", None, False),
    ]
    ok = True
    for w, inject, expect_fail in cases:
        extra = ["--inject", inject] if inject else []
        res, _ = run(w, 1, args.seconds, extra=extra)
        bites = res["failed"] == res["attempted"] and not res["correct"]
        clean = res["failed"] == 0 and res["correct"]
        good = bites if expect_fail else clean
        ok &= good
        print(f"{w:<10} inject={inject or 'none':<15} failed {res['failed']}/{res['attempted']}"
              f" correct={res['correct']}: {'ok' if good else 'WRONG'}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def reference(args):
    variants = [
        ("consequence-ic", ()),
        ("pthreads", ("--runtime", "pthreads")),
        ("dthreads", ("--runtime", "dthreads")),
        ("-pipeline_commit", ("--without", "pipeline_commit")),
        ("-fast_sched", ("--without", "fast_sched")),
        ("pinned cpu0", ()),
        ("traced", ()),
    ]
    taskset = shutil.which("taskset")
    for w in workloads(args.workloads):
        print(f"\n{w}: median of {args.runs} runs (seeds {args.seed}..), {args.seconds} s each")
        print(f"  {'variant':<17}{'wall_ms_p50':>12}{'spread':>8}{'wall_ms_tail':>13}"
              f"{'cpu_ms_mean':>12}{'vMcycles':>10}{'heap_MiB':>9}{'steal':>7}")
        for label, extra in variants:
            if label in ("pthreads", "dthreads") and w in ("kv_record", "kv_replay"):
                print(f"  {label:<17}  n/a: recording and replay need Consequence")
                continue
            if label == "pinned cpu0" and not taskset:
                continue
            prefix = (taskset, "-c", "0") if label == "pinned cpu0" else ()
            trace = 1 if label == "traced" else 0
            runs = [run(w, args.seed + i, args.seconds, trace, extra, prefix)
                    for i in range(args.runs)]
            rows = [r for r, _ in runs]
            steal = statistics.median(i["steal_pct"] for _, i in runs)
            fails = sum(r["failed"] for r in rows)
            if trace:
                # The traced run reports spans: the ones that make up the
                # timed operation, summed, compare with wall_ms_p50.
                span = {"kv_record": ["dmt-trace.create_ms", "consequence.run_ms",
                                      "dmt-trace.finish_ms", "dmt-trace.open_ms"],
                        "kv_replay": ["dmt-trace.open_ms", "consequence.replay_run_ms",
                                      "consequence.replay_check_ms"]}.get(w, ["consequence.run_ms"])
                timed = statistics.median(
                    sum(r["metrics"][k]["value"] for k in span) for r in rows)
                print(f"  {label:<17}{timed:>12.4g}{'':>60}{steal:>6.1f}%")
                continue
            med = {k: statistics.median(r["metrics"][k]["value"] for r in rows)
                   for k in rows[0]["metrics"]}
            for k in ("wall_ms_p50", "wall_ms_tail"):
                med[k] = statistics.median(i[k] for _, i in runs)
            q1, q2, q3 = quartiles([i["wall_ms_p50"] for _, i in runs])
            print(f"  {label:<17}{med['wall_ms_p50']:>12.4g}{(q3 - q1) / q2:>7.1%} "
                  f"{med['wall_ms_tail']:>12.4g}{med['cpu_ms_mean']:>12.4g}"
                  f"{med['virtual_mcycles']:>10.4g}{med['peak_heap_mib']:>9.3g}"
                  f"{steal:>6.1f}%" + (f"  failed {fails}" if fails else ""))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("cmd", choices=["steady", "selftest", "reference"])
    ap.add_argument("--runs", type=int, help="runs per set (steady 10, reference 3)")
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (steady: run_seconds, selftest 2, reference 5)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    if args.runs is None:
        args.runs = {"reference": 3}.get(args.cmd, 10)
    if args.seconds is None:
        args.seconds = {"selftest": 2, "reference": 5}.get(args.cmd, BENCH["run_seconds"])
    return {"steady": steady, "selftest": selftest, "reference": reference}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
