"""Set-up probe: a fresh interpreter that gets one workload ready, then says so.

    python3 perfbench/setup_probe.py <workload> <seed>

It imports ``triwalks.cli`` from ``src/`` of the current directory, does the
workload's own set-up (the map workload saves its random scaffoldings with
``triwalks scaffolding``) and prints ``ready``; run.py times the launch up to
that line. It loads no other part of the benchmark than ``scaffolds.py``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

from triwalks import cli  # noqa: E402

from scaffolds import scaffold_files, write_scaffolds  # noqa: E402

if sys.argv[1] == "map":
    outdir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    error = write_scaffolds(cli.main, scaffold_files(int(sys.argv[2]), outdir))
    if error:
        sys.exit(error)
print("ready", flush=True)
