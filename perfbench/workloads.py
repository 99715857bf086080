"""Seeded call lists for the three benchmark workloads.

Each generator turns a ``random.Random`` into the argument lists of the
``smoothlab`` CLI calls one repetition runs, in order.  The program sees
only these arguments, never the seed.  ``scale`` shrinks every size for
smoke tests; the benchmark always runs at ``scale=1``.  Why each workload
and each input range was chosen is written up in ``README.md``.
"""

from __future__ import annotations

import os
import random

BASES = (2, 3, 5, 6, 7, 10)

# scan sweeps one base from each half of BASES.  A sweep over 6, 7 or 10
# costs 10-20% more than one over 2, 3 or 5, so drawing one of each keeps
# the work, and the slowest call, about the same for every seed.
SCAN_BASES = ((2, 3, 5), (6, 7, 10))

# The scan workload's one threaded call uses every core the process may
# run on, but no more than two threads.
THREADS = min(2, len(os.sched_getaffinity(0)))

# abc at n <= 32 factors in under 0.05 s for every base above; larger n
# reach 18-19 digit semiprime cofactors (e.g. 10^38 - 1) that take seconds
# or exhaust the rho budget.
ABC_N = (10, 32)

# Query counts of the point workload: weights 5:3:1:1:1 over 120 queries,
# rounded by largest remainder.
POINT_MIX = (("membership", 54), ("svalue", 33), ("abc", 11), ("binomial", 11), ("bounds", 11))

POINT_ANCHOR = ["abc", "--base", "2", "--n", "600", "--K", "1", "--c", "101/100"]


def _c(rng: random.Random) -> str:
    """Threshold c in [1.005, 1.050], as an exact three-decimal literal."""
    return f"{rng.randint(1005, 1050) / 1000:.3f}"


def _log_uniform(rng: random.Random, lo: float, hi: float, k: int) -> list[int]:
    """k integers log-uniform on [lo, hi], one from each of k equal strata
    of log n, shuffled.  Stratifying keeps each seed's total work close to
    the expected total."""
    ratio = hi / lo
    out = [int(lo * ratio ** ((i + rng.random()) / k)) for i in range(k)]
    rng.shuffle(out)
    return out


def _sized(x: int, scale: float, floor: int) -> str:
    return str(max(floor, int(x * scale)))


def scan(rng: random.Random, scale: float = 1.0) -> list[list[str]]:
    b1, b2 = (str(rng.choice(half)) for half in SCAN_BASES)
    c = _c(rng)
    N = _sized(3000, scale, 3)
    return [
        ["enumerate", "--base", b1, "--K", "1", "--N", N, "--c", c],
        ["enumerate", "--base", b2, "--K", "1", "--N", N, "--c", c, "--threads", str(THREADS)],
        ["enumerate", "--base", b1, "--theta", "3/2", "--N", _sized(600, scale, 3), "--c", c],
        ["window", "--base", b2, "--N", _sized(2000, scale, 3), "--K", "1", "--c", c],
        ["bounds", "--N", N, "--check-base", b1, "--check-c", c, "--K", "1"],
        ["binomial", "--N", _sized(1500, scale, 1)],
    ]


def table(rng: random.Random, scale: float = 1.0) -> list[list[str]]:
    b1, b2 = (str(b) for b in rng.sample(BASES, 2))
    return [
        ["snk", "--base", b1, "--n", _sized(360360, scale, 1), "--K", "1"],
        ["dyadic", "--base", b1, "--N", _sized(200000, scale, 3), "--K", "1"],
        ["dyadic", "--base", b2, "--N", _sized(100000, scale, 3), "--K", "1"],
    ]


def point(rng: random.Random, scale: float = 1.0) -> list[list[str]]:
    k = {kind: max(1, round(count * scale)) for kind, count in POINT_MIX}
    queries = []
    # membership and svalue share one stratified draw of n, so for every
    # seed the j-th fastest of them, and with it the median and p90 call,
    # sits at nearly the same n.  Along increasing n the two kinds are
    # interleaved evenly and the bases taken in turn (in a seeded order),
    # so the calls near the median and the p90 mix kinds and bases alike
    # for every seed.
    total = k["membership"] + k["svalue"]
    ns = sorted(_log_uniform(rng, 10**4, max(10**4, 10**6 * scale), total))
    bases = rng.sample(BASES, len(BASES))
    for j, n in enumerate(ns):
        base = str(bases[j % len(bases)])
        if (j + 1) * k["membership"] // total > j * k["membership"] // total:
            queries.append(["membership", "--base", base, "--n", str(n), "--K", "1", "--c", _c(rng)])
        else:
            queries.append(["svalue", "--base", base, "--n", str(n), "--K", "1"])
    for _ in range(k["abc"]):
        queries.append(["abc", "--base", str(rng.choice(BASES)), "--n", str(rng.randint(*ABC_N)),
                        "--K", "1", "--c", _c(rng)])
    # binomial stops at n = 2000, where it takes under 2 ms, so that it
    # ranks below the median call (a membership or svalue near n = 4e4).
    for n in _log_uniform(rng, 100, 2000, k["binomial"]):
        queries.append(["binomial", "--n", str(n)])
    for N, p in zip(_log_uniform(rng, 10**3, 10**12, k["bounds"]),
                    _log_uniform(rng, 17, 10**12, k["bounds"])):
        queries.append(["bounds", "--N", str(N), "--p", str(p),
                        "--precision", rng.choice(("double", "high"))])
    rng.shuffle(queries)
    anchor = list(POINT_ANCHOR)
    anchor[4] = _sized(600, scale, 10)
    # The anchor runs first, so the first sieve to 10^6 (its trial division)
    # lands in the same call for every seed.
    return [anchor] + queries


WORKLOADS = {"scan": scan, "table": table, "point": point}


def make_calls(workload: str, seed: int, scale: float = 1.0) -> list[list[str]]:
    return WORKLOADS[workload](random.Random(seed), scale)
