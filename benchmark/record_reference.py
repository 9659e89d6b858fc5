#!/usr/bin/env python3
"""Record each workload's CSV at the reference seed into reference/.

    python3 benchmark/record_reference.py

Run it from the root of a checkout whose results are to become the
reference; checks.py compares runs at REFERENCE_SEED against these files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_DIR
from run import RUNS_DIR, child_env
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    (root / RUNS_DIR).mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=root / RUNS_DIR) as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(workload.config_for(REFERENCE_SEED)))
            out = Path(tmp) / "out"
            subprocess.run(
                [sys.executable, "-m", "dsgd_lab.cli", str(config),
                 "--output-dir", str(out), "--jobs", "1"],
                cwd=root, env=child_env(root, workload), check=True,
            )
            shutil.copyfile(out / workload.csv, REFERENCE_DIR / f"{workload.name}.csv")
        print(f"recorded {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
