"""Record the sha256 of every call's stdout for the default seed.

    python3 perfbench/record_digests.py

run.py fails any default-seed call whose stdout no longer matches these
digests.  Re-record only when a change is meant to alter the output.
"""

from __future__ import annotations

import hashlib
import json

from run import DEFAULT_SEED, DIGESTS, HARD_LIMIT_S, spawn
from workloads import WORKLOADS, make_calls


def main() -> None:
    digests = {}
    for workload in WORKLOADS:
        calls = make_calls(workload, DEFAULT_SEED)
        rep = spawn(calls, False, HARD_LIMIT_S)
        bad = [" ".join(a) for a, c in zip(calls, rep["calls"]) if c["code"] != 0]
        if bad:
            raise SystemExit(f"calls failed: {bad}")
        digests[workload] = [hashlib.sha256(c["stdout"].encode()).hexdigest() for c in rep["calls"]]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": digests}, indent=1) + "\n")


if __name__ == "__main__":
    main()
