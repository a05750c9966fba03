"""Record reference payloads for every job any seed can produce.

    PYTHONPATH=src python3 bench/make_reference.py

Runs each job of workloads.reference_jobs() through the CLI in this
process and writes the mathematical fields of its JSON output (see
check.fields) to bench/reference.json.  The file in the repository was
recorded at the commit that introduced the benchmark; regenerate it only
when a change is meant to alter these values.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import splitstat.cli as cli

from check import fields
from workloads import reference_jobs


def main() -> int:
    refs = {}
    for job in reference_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(job.split() + ["--json"])
        if rc != 0:
            print(f"{job}: exit {rc}", file=sys.stderr)
            return 1
        refs[job] = fields(job, json.loads(out.getvalue()))
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
