"""Record the sha256 of stdout of every fixed (unseeded) job.

    python3 perfbench/record_digests.py

Run it from a checkout whose outputs are known to be right, and commit
the rewritten digests.json with the change that moved the outputs.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import workloads
from run import HERE, ROOT, child_env, command


def main():
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        for job in workloads.build(name, seed=0):
            if job.check != "digest":
                continue
            proc = subprocess.run(command(job, False), capture_output=True,
                                  env=child_env(), cwd=ROOT, check=True)
            digests[job.name] = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{digests[job.name][:16]}  {job.name}", flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
