"""Contention helper: emulates the host's slow spells for the steadiness runs.

Usage, from the root of a checkout::

    python3 perfbench/contend.py --pattern mem:60,cpu2:60

cycles through the phases until it is stopped (SIGTERM or SIGINT), and
stops every worker it started before it exits.  ``memN:S`` runs ``N``
memory-bandwidth hogs (copies between two 64 MB arrays) for ``S`` seconds,
``cpuN:S`` runs ``N`` pure-Python busy loops, ``idle:S`` runs nothing; ``N``
defaults to 1.  On a 2-core host one hog takes the spare core and two share
the benchmark's core with it.
"""

from __future__ import annotations

import argparse
import multiprocessing
import signal
import sys
import time

import numpy as np


def _memory_hog() -> None:
    src = np.ones(8 << 20)
    dst = np.empty_like(src)
    while True:
        np.copyto(dst, src)
        np.copyto(src, dst)


def _cpu_hog() -> None:
    x = 0
    while True:
        x = (x * 31 + 7) % 1_000_003


HOGS = {"mem": _memory_hog, "cpu": _cpu_hog}


def parse_pattern(text: str) -> list:
    phases = []
    for item in text.split(","):
        kind, seconds = item.split(":")
        base = kind.rstrip("0123456789")
        count = int(kind[len(base):] or 1)
        if base not in HOGS and base != "idle":
            raise ValueError(f"unknown phase {kind!r}")
        phases.append((base, count, float(seconds)))
    return phases


def _stop(signum, frame):
    raise SystemExit(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pattern", default="mem:60,cpu2:60")
    args = parser.parse_args(argv)
    phases = parse_pattern(args.pattern)
    signal.signal(signal.SIGTERM, _stop)
    ctx = multiprocessing.get_context("spawn")
    workers = []
    try:
        while True:
            for kind, count, seconds in phases:
                if kind != "idle":
                    workers = [ctx.Process(target=HOGS[kind], daemon=True) for _ in range(count)]
                    for w in workers:
                        w.start()
                print(f"contend: {kind} x{count} for {seconds:g} s", file=sys.stderr, flush=True)
                time.sleep(seconds)
                for w in workers:
                    w.terminate()
                for w in workers:
                    w.join()
                workers = []
    except KeyboardInterrupt:
        pass
    finally:
        for w in workers:
            w.terminate()
        for w in workers:
            w.join()
    return 0


if __name__ == "__main__":
    sys.exit(main())
