"""Rewrite cli_outputs.json, the stdout of each pinned CLI call.

    PYTHONPATH=src python3 tests/data/record_cli_outputs.py

tests/test_cli.py::test_every_subcommand_output_is_pinned runs every
command listed here and compares its stdout with the recorded one.
Re-record only when a change is meant to alter the output; to pin a new
call, append it to COMMANDS and record at a commit whose output it
should keep.
"""

from __future__ import annotations

import json
from pathlib import Path

from click.testing import CliRunner

from smoothlab.cli import main

OUTPUTS = Path(__file__).resolve().parent / "cli_outputs.json"

# bases with a - 1 = 3^300 and a - 1 = 2^300, so o_3 = 300 and o_2 = 300
BIG3 = 1 + 3**300
BIG2 = 1 + 2**300

_BOTH_FORMATS = [
    "membership --base 3 --n 12 --theta 3/2 --c 6/5",
    "enumerate --base 2 --K 1 --c 6/5 --N 30",
    "svalue --base 2 --n 12 --K 1 --materialize",
    "snk --base 3 --n 12 --K 3/2",
    "window --base 3 --N 40 --K 1 --c 6/5",
    "dyadic --base 2 --N 100 --K 1",
    "bounds --N 64 --p 101 --check-base 2 --K 1 --check-c 6/5",
    "abc --base 2 --n 6 --K 1 --c 6/5",
    "binomial --N 5",
]

COMMANDS = [f"{cmd} --format {fmt}" for cmd in _BOTH_FORMATS for fmt in ("json", "csv")] + [
    f"snk --base {BIG3} --n 12 --K 2 --format csv",
    f"dyadic --base {BIG3} --N 40 --K 1 --format json",
    f"window --base {BIG3} --N 12 --K 1 --c 101/100 --format json",
    f"snk --base {BIG2} --n 12 --K 2 --format csv",
    f"dyadic --base {BIG2} --N 40 --K 1 --format json",
    f"window --base {BIG2} --N 12 --K 1 --c 101/100 --format json",
    # single terms at the scale of one-n-at-a-time queries
    "svalue --base 6 --n 720720 --K 1",
    "membership --base 10 --n 999983 --K 1 --c 1.01",
    "svalue --base 3 --n 524288 --K 1 --format csv",
    "membership --base 7 --n 100000 --K 3/2 --c 101/100",
    f"svalue --base {BIG3} --n 5040 --K 1",
    # the 50-digit mode, evaluated in the standard library's decimal
    "bounds --N 1000000 --p 1000003 --precision high --format json",
    "bounds --N 1000000 --p 1000003 --precision high --format csv",
    # single terms on both sides of the sparse-candidate / all-primes split
    "svalue --base 2 --n 999983 --K 1",
    "svalue --base 3 --n 9973 --y 300000",
    "membership --base 10 --n 720720 --K 1 --c 1.01",
    "svalue --base 7 --n 524288 --K 3/2 --format csv",
    "membership --base 3 --n 997920 --K 1 --c 101/100 --format csv",
    f"svalue --base {BIG2} --n 720 --K 1",
    # cyclotomic pieces trial-divided by the primes = 1 mod d only
    "abc --base 7 --n 29 --K 1 --c 1.01",
    "abc --base 10 --n 17 --K 1 --c 1.01",
    "abc --base 5 --n 31 --K 1 --c 1.011",
    # slices decided by one (a^g - 1) mod p pass, with their sub-progressions
    "svalue --base 10 --n 977899 --K 1",
    "svalue --base 6 --n 570393 --K 1",
    "svalue --base 7 --n 290925 --K 1 --format csv",
    "membership --base 2 --n 500000 --K 1 --c 1.01",
    # order tables to 10^5 and 360360: the dyadic S1 sums o ln p / ell
    # over every record, so one wrong record changes its bytes
    *(f"dyadic --base {b} --N 100000 --K 1" for b in (2, 3, 5, 6, 7, 10)),
    "snk --base 3 --n 360360 --K 1 --format csv",
    # snk records found by the single-term passes, checked against the
    # order table's rows with ell | n when these were recorded
    "snk --base 2 --n 6126120 --K 1 --format csv",
    "snk --base 10 --n 720720 --K 3/2",
    f"snk --base {BIG3} --n 5040 --K 1 --format csv",
    # edge rows: a = 2, n = 1 makes the triple (1, 1, 2), and n = 1 is the
    # binomial boundary 2 > 2
    "abc --base 2 --n 1 --K 1 --c 3/2 --format json",
    "abc --base 2 --n 1 --K 1 --c 3/2 --format csv",
    "binomial --n 1 --format csv",
    # cut passes whose trial division stops below Y
    "svalue --base 10 --n 529360 --K 1",
    "svalue --base 6 --n 840880 --K 1",
    "membership --base 5 --n 895158 --K 1 --c 1.01",
    # Phi_37(3) = 13097927 * 17189128703, past 10^12 and split by rho
    "abc --base 3 --n 37 --K 1 --c 1.01",
    # 3 divides both Phi_1(10) and Phi_3(10)
    "abc --base 10 --n 3 --K 1 --c 1.01",
    # 131 found by trial division, and a 20-digit cofactor split by rho
    "abc --base 3 --n 65 --K 1 --c 1.01",
    # cut passes bounded by a^d - 1 < Y: d = 12 and 16 of 2^18 * 3, and
    # d = 10 of 2^16 * 5, which takes Phi_5(3) = 11^2 and then Phi_10(3) = 61
    "svalue --base 2 --n 786432 --K 1",
    "membership --base 3 --n 327680 --K 1 --c 1.01",
]


def record() -> None:
    runner = CliRunner()
    entries = []
    for command in COMMANDS:
        result = runner.invoke(main, command.split())
        if result.exit_code != 0:
            raise SystemExit(f"{command!r} exited {result.exit_code}: {result.output}")
        entries.append({"command": command, "stdout": result.stdout})
    OUTPUTS.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
