"""Record the image-consistency value of every score-pair input variant.

    python3 perfbench/record_ic.py

The score-pair check compares each run's IC against this record, so a
change that alters IC shows as a failed check. Run it again only when IC is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import worker
import workloads


def main():
    um = worker.import_udfmesh()
    wl = workloads.WORKLOADS["score-pair"]
    record = {}
    workdir = tempfile.mkdtemp(dir=worker.ROOT, prefix=".perfbench_work-ic-")
    try:
        for variant in range(workloads.IC_VARIANTS):
            inputs = {"workload": wl.name, "seed": variant,
                      **wl.build(um, variant, workdir)}
            out = wl.op(wl.setup(um, inputs))
            record[str(variant)] = out["report"].ic
            print(variant, repr(out["report"].ic), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.IC_RECORD, "w") as fh:
        json.dump({"variants": workloads.IC_VARIANTS, "ic": record}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
