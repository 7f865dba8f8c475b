"""Record the expected outputs that ``run.py`` checks every job against.

    python3 bench/make_golden.py

Writes ``bench/golden.json``: for each workload and size, the expected exit
code, verdict line and output sha256 (the ``--json`` report for the CLI
workloads, the product digest per seed for ``word-products``).  The file
was taken once on a commit whose output is trusted; regenerate it only when
a change alters the output on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import job

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 64                  # word-products digests for seeds 0..SEEDS-1


def run_job(workload: str, small: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=job.ROOT) as tmp:
        out = os.path.join(tmp, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload",
               workload, "--seed", "0", "--out", out] + (["--small"] if small else [])
        subprocess.run(cmd, check=True, cwd=job.ROOT,
                       env=dict(os.environ, PYTHONHASHSEED="0"))
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def main() -> int:
    conformal = job.import_conformal()
    golden = {}
    for workload in ("lhv-equiv", "lhv-check"):
        golden[workload] = {size: run_job(workload, size == "small")
                            for size in ("full", "small")}
    golden["word-products"] = {}
    for size, count in (("full", job.PRODUCTS[0]), ("small", job.PRODUCTS[1])):
        entry = {"digests": {}}
        for seed in range(SEEDS):
            sig, triples = job.product_inputs(conformal, seed, count)
            code, verdict, digest = job.run_products(conformal, sig, triples)
            entry.update(exit_code=code, verdict=verdict)
            entry["digests"][str(seed)] = digest
            print(f"word-products {size} seed {seed}: {digest}", file=sys.stderr)
        golden["word-products"][size] = entry
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
