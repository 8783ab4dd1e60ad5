"""Record reference outputs into reference.json from the current sources.

    python3 perfbench/record.py

Runs one pass of every workload, at both sizes and, for mix, at every
program seed, and stores each operation's checked verdicts and counts and
the SHA-256 of its outputs.  Re-record only when a change to the program
is meant to change its results; the reference is what makes a speed-up
that alters a slope, a count or a byte show as an error.
"""

from __future__ import annotations

import json
import os
import sys

import run
import worker
import workloads


def main() -> int:
    env = run.child_env()
    if any(os.environ.get(k) != v for k, v in env.items()):
        # record under the same environment the benchmark's workers get
        os.execve(sys.executable, [sys.executable, __file__], env)
    worker.import_package()

    reference = {}
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            seeds = range(workloads.PROGRAM_SEEDS) if workload == "mix" else [0]
            for seed in seeds:
                inputs = workloads.build_inputs(workload, size, seed)
                record, outcomes = worker.run_pass(inputs, None)
                if record["failed"]:
                    print("\n".join(record["failures"]), file=sys.stderr)
                    return 1
                key = workloads.reference_key(workload, size, inputs.program_seed)
                reference[key] = {name: workloads.record_entry(o) for name, o in outcomes}
                print(f"{key}: {len(outcomes)} operations, {record['wall_s']:.1f} s", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
