"""The planner stack is single-threaded: importing it loads no worker pool.

Plan search and plan serving run on the calling thread, so no public package
should pull in ``multiprocessing`` or the process- or thread-pool executor.  The check runs in a fresh
interpreter so modules other tests imported cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import repro, repro.core, repro.service, repro.sched, repro.capacity, repro.obs
print(json.dumps(sorted(
    name for name in (
        "multiprocessing", "concurrent.futures.process", "concurrent.futures.thread"
    )
    if name in sys.modules
)))
"""


def test_public_packages_import_no_process_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
