"""Steadiness and sensitivity evidence for the benchmark.

Usage, from the root of a checkout::

    # ten seeds per workload, quiet host
    python3 perfbench/evidence.py spread --seeds 1-10 --out quiet.json
    # the same beside the contention helper (slow spells on the spare core)
    python3 perfbench/evidence.py spread --seeds 1-10 --contend mem:60,cpu2:60 --out busy.json
    # compare two sets: raw and normalised medians and spreads side by side
    python3 perfbench/evidence.py compare quiet.json busy.json
    # sensitivity self-test: activation made slower by a fixed amount of work
    python3 perfbench/evidence.py sensitivity --pairs 5 --extra-act 1

Every run goes through ``run.py`` exactly as a benchmark run does, with
``--report all`` so one run gives the normalised end-to-end timings and
their raw ``wall.*`` twins.  Spread is the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) over the median.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chat-small", "rag-prefix-small", "mcbp-llama-mini", "spec-codegen-tiny")
#: normalised end-to-end timing -> raw twin
TWINS = {
    "tok_per_s": "wall.tok_per_s",
    "ttft_p50_ms": "wall.ttft_p50_ms",
    "itl_p50_ms": "wall.itl_p50_ms",
    "setup_s": "wall.setup_s",
}
SHOWN = (
    "tok_per_s", "ttft_p50_ms", "itl_p50_ms", "client.ttft_p90_ms", "client.itl_p90_ms",
    "setup_s", "peak_rss_mb", "scheduler.steps", "host.probe_ms",
) + tuple(TWINS.values())


def run_once(workload: str, seed: int, seconds: int, extra=()) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--report", "all", *extra,
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # the batch-composition digest, which must repeat across runs of one seed
    values["composition"] = re.search(r"composition (\w+)", proc.stderr).group(1)
    return values


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def start_contention(pattern):
    if not pattern:
        return None
    return subprocess.Popen(
        [sys.executable, str(HERE / "contend.py"), "--pattern", pattern],
        cwd=HERE.parent,
    )


def stop(proc) -> None:
    if proc is not None:
        proc.terminate()
        proc.wait(timeout=30)


def cmd_spread(args) -> None:
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    runs = {w: [] for w in workloads}
    helper = start_contention(args.contend)
    try:
        for seed in seeds_of(args.seeds):
            for w in workloads:
                start = time.time()
                runs[w].append(run_once(w, seed, args.seconds))
                print(f"{w} seed {seed}: {time.time() - start:.0f} s", file=sys.stderr, flush=True)
    finally:
        stop(helper)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    print(table({"": runs}))


def table(sets: dict) -> str:
    """Markdown table: per workload and metric, median and spread of each set."""
    names = list(sets)
    head = "| workload | metric | " + " | ".join(
        f"{n} median | {n} spread".strip() for n in names
    ) + " |"
    lines = [head, "|" + "---|" * (2 + 2 * len(names))]
    for w in next(iter(sets.values())):
        for metric in SHOWN:
            cells = []
            for n in names:
                values = [r[metric] for r in sets[n][w] if metric in r]
                if len(values) < 2:
                    cells += ["", ""]
                    continue
                cells += [f"{statistics.median(values):.4g}", f"{spread(values):.3f}"]
            if any(cells):
                lines.append(f"| {w} | {metric} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def cmd_compare(args) -> None:
    sets = {Path(p).stem: json.loads(Path(p).read_text()) for p in args.sets}
    print(table(sets))
    base_name, other_name = list(sets)[:2]
    base, other = sets[base_name], sets[other_name]
    print(f"\nmedian of {other_name} over median of {base_name}:\n")
    print("| workload | metric | normalised | raw twin |")
    print("|---|---|---|---|")
    for w in base:
        for metric, twin in TWINS.items():
            ratio = [
                statistics.median(r[m] for r in other[w]) / statistics.median(r[m] for r in base[w])
                for m in (metric, twin)
            ]
            print(f"| {w} | {metric} | {ratio[0]:.3f} | {ratio[1]:.3f} |")


def cmd_sensitivity(args) -> None:
    """Alternate plain and slowed runs of one workload, same seeds, and compare."""
    sides = {"plain": [], "slowed": []}
    extra = ("--extra-act", str(args.extra_act))
    for i, seed in enumerate(seeds_of(args.seeds)[: args.pairs]):
        order = (("plain", ()), ("slowed", extra))
        for side, flags in order if i % 2 == 0 else order[::-1]:
            sides[side].append(run_once(args.workload, seed, args.seconds, flags))
            print(f"{side} seed {seed} done", file=sys.stderr, flush=True)
    print(f"{args.workload}, {args.pairs} pairs, activation doing {args.extra_act} extra passes\n")
    print("| metric | plain median | slowed median | slowed / plain, median over pairs |")
    print("|---|---|---|---|")
    for metric in ("itl_p50_ms", "wall.itl_p50_ms", "tok_per_s", "wall.tok_per_s", "host.probe_ms"):
        a = [r[metric] for r in sides["plain"]]
        b = [r[metric] for r in sides["slowed"]]
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print(f"| {metric} | {statistics.median(a):.4g} | {statistics.median(b):.4g} | {ratio:.3f} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread", help="run seeds per workload and report spreads")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--workloads", default="")
    p.add_argument("--contend", default="", help="contend.py pattern to run beside the set")
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare", help="compare saved sets")
    p.add_argument("sets", nargs="+")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("sensitivity", help="slowed activation against plain")
    p.add_argument("--workload", default="chat-small")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--extra-act", type=int, default=1)
    p.set_defaults(fn=cmd_sensitivity)
    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
