#!/usr/bin/env python3
"""Record ``bench/reference.json``: every workload's outputs at its default seed.

    python3 bench/record_reference.py

Run from the root of a checkout whose outputs are trusted.  Each recorded
pass must also pass the independent checks used at other seeds, so a
reference that breaks an identity or a certificate is refused.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def main() -> int:
    run.load_library()
    import workloads

    reference = {}
    problems = []
    for name, workload in workloads.WORKLOADS.items():
        outcomes = workload.run_pass(workload.inputs(workload.default_seed))
        records = {}
        for o in outcomes:
            if o.error is not None:
                problems.append(f"{name} {o.label}: {o.error}")
                continue
            records[o.label] = workload.record(o)
        reference[name] = records
        for o in outcomes:
            if o.error is None:
                reason = workload.check(o, records[o.label], records)
                if reason is not None:
                    problems.append(f"{name} {o.label}: {reason}")
        print(f"{name}: {len(records)} operations recorded")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
