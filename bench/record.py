"""Record the digest of every exact output the workloads can produce.

    PYTHONPATH=src python3 -m bench.record

Builds every pool entry of every slot at both sizes, runs and checks each op,
prints its time and any failure, and writes `bench/digests.json`.  Slots
whose pool is a seed range (the `verify` workload) produce no exact output
and are skipped.  Run it only when a workload's inputs change: the digests
pin the exact outputs of the program at the commit that recorded them.
"""

import importlib
import json
import sys
import time

from .child import check_pass, run_pass
from .common import DIGEST_FILE, canon, sha

WORKLOADS = ("zeros", "exact", "limits")


def main():
    digests = {}
    bad = 0
    for workload in WORKLOADS:
        module = importlib.import_module(f"bench.workloads.{workload}")
        for size in ("tiny", "full"):
            for slot in module.slots(size):
                if not isinstance(slot.pool, list):
                    continue
                for params in slot.pool:
                    ops = slot.make(params)
                    env, errors, times, _ = run_pass(ops)
                    for op in ops:
                        if op.name not in errors and "exact" in env[op.name]:
                            digests[op.key] = sha(canon(env[op.name]["exact"]))
                    failures, _ = check_pass(ops, env, errors, digests)
                    for op in ops:
                        status = "; ".join(failures.get(op.name, [])) or "ok"
                        bad += op.name in failures
                        print(f"{workload:7s} {size:4s} {op.name:32s} {times[op.name]:8.3f}s  {status}", flush=True)
    with open(DIGEST_FILE, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=0)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    t = time.perf_counter()
    code = main()
    print(f"done in {time.perf_counter() - t:.1f}s", file=sys.stderr)
    sys.exit(code)
