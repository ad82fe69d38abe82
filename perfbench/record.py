"""Record the output fingerprints that run.py checks at its default seed.

Usage, from the repository root, after a change that alters depscope's
outputs on purpose:

    python3 perfbench/record.py

Every workload runs once per size with jobs=1, so scan_parallel's process
pool must reproduce the serial result.  Writes perfbench/expected.json.
"""
import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pipelines

    recorded = {"seed": run.DEFAULT_SEED}
    for mode in ("smoke", "full"):
        recorded[mode] = {}
        for name, workload in pipelines.WORKLOADS.items():
            workdir = run.WORK / f"record-{name}-{os.getpid()}"
            try:
                pipelines.write_inputs(workload, workdir, run.DEFAULT_SEED, mode == "smoke")
                rep = run.run_once(
                    workload, workdir, run.DEFAULT_SEED, mode == "smoke", jobs=1, traced=False
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            recorded[mode][name] = rep.fingerprint
            print(f"{mode} {name}: {rep.trials} trials in {rep.wall:.2f}s", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
