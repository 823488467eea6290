"""Regenerate the seed-0 reference values in ``reference/``.

    python3 bench/make_reference.py [workload ...]

Run from the repository root.  Each workload's seed-0 invocation is run once
and, after its outputs pass the every-seed checks, the values of its data
files are stored.  Regenerate only when a change is meant to move the
outputs, and state the old-to-new deviation when you do.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
import run
import workloads


def main(names) -> int:
    for name in names or list(workloads.WORKLOADS):
        inv = workloads.generate(name, 0)
        cwd = os.path.join(run.WORK_DIR, f"reference-{name}")
        try:
            rec = run.invoke(inv, cwd)
            if "problem" in rec:
                print(f"{name}: {rec['problem']}", file=sys.stderr)
                return 1
            data = check.check_outputs(inv, check.find_out_dir(cwd))
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        payload = {
            "argv": list(inv.argv),
            "files": {k: check.reference_entry(v) for k, v in sorted(data.items())},
        }
        path = os.path.join(check.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=None, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
