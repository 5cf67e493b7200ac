"""Record ``reference.json``: paper_smoke artifact digests at two seeds.

Run from the repository root: ``python3 perfbench/record_reference.py``.
It records the default seed and the held-out seed.  Re-record only in a
change that alters experiment artifact bytes on purpose.
"""

import json
import os
import sys

import workloads

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))


def main() -> int:
    workload = "paper_smoke"
    reference = {workload: {}}
    for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
        items = workloads.items_for(workload, seed)
        prepared = workloads.prepare(workload, items)
        reference[workload][str(seed)] = {
            item.key: workloads.sha256(workloads.run_item(workload, item, spec, None))
            for item, spec in zip(items, prepared)}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
