#!/usr/bin/env python3
"""Record perfbench/reference.json: the output (or error class) of every
seed-independent call of each workload at the checked-out commit.

    python3 perfbench/record.py

Run it from the root of a checkout, and only at a commit whose outputs are
the accepted ones: every later run is compared with what it writes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # sibling module; puts the checkout root on sys.path

from perfbench import checks, harness, workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    doc = {"src_sha256": run.environment()["src_sha256"], "workloads": {}}
    work = run.OUT / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(work)
    try:
        for name in workloads.PIPELINES:
            _, cli = run.setup(name, 0)
            calls = workloads.PIPELINES[name](run.iteration_rng(0, 0))
            with harness.Runner(cli) as runner:
                doc["workloads"][name] = {
                    call.label: checks.reference_entry(runner.run(call))
                    for call in calls if call.reference}
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
