"""Record the expected output digest of every call any seed can make.

    python3 perfbench/record_digests.py

Writes ``perfbench/digests.json``. Run it only on a commit whose outputs
are trusted: the benchmark counts every later difference as a failure.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    api = run.load_api()
    table = {}
    for workload in workloads.WORKLOADS:
        state = workloads.new_state(api, workload)
        table[workload] = {
            call.key: workloads.digest(api, call, workloads.execute(api, call, state))
            for call in workloads.every_call(workload)
        }
        print("%s: %d digests" % (workload, len(table[workload])), file=sys.stderr)
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
