"""Record the references that bench/workloads.py pins outputs to.

For the default seed and one held-out seed this stores, at full size, each
mc-sweep op's error rate and each learn-cli op's edge set together with
the pairs whose statistic lies within ``reference.THRESHOLD_SLACK`` of the
threshold.  A later change can then be rechecked on a seed that was not
used while writing it.  Run from the root of a checkout:

    python3 bench/record_references.py
"""

import json
import shutil
import sys
from contextlib import redirect_stdout
from io import StringIO

from run import OUT, import_program

SEEDS = (0, 7919)


def record(seed: int) -> dict:
    import reference
    import workloads

    workdir = OUT / f"record-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        mc = workloads.build("mc-sweep", seed, "full", workdir)
        p_err = [op.run().rows[0].p_err for op in mc.ops]
        learn = workloads.build("learn-cli", seed, "full", workdir)
        edges, exempt = [], []
        for op in learn.ops:
            with redirect_stdout(StringIO()):
                out = op.run()
            result = json.loads((out / "result.json").read_text())
            threshold = result["threshold"]
            edges.append(result["edges"])
            exempt.append([
                [int(x) for x in key.split(",")]
                for key, rec in result["pairs"].items()
                if rec["value"] is not None and abs(rec["value"] - threshold) <= reference.THRESHOLD_SLACK
            ])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"mc-sweep": {"p_err": p_err}, "learn-cli": {"edges": edges, "exempt": exempt}}


def main() -> int:
    import_program()
    import reference

    data = {"full": {str(seed): record(seed) for seed in SEEDS}}
    reference.REFERENCES.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {reference.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
