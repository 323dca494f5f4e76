"""Record the expected exit status and stdout digest of every command.

Usage, from the root of a checkout: python3 perfbench/record_expected.py

Run this only on a commit whose outputs are known to be right (the digests
in ``expected.json`` were recorded from the seed); the benchmark counts any
later difference as a failed command.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

from run import OUT_DIR, ROOT, Launcher, child_env
from workloads import REPORTS, WORKLOADS


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    launcher = Launcher(child_env(), tmp)
    expected = {}
    try:
        paths = {}
        for name, command in REPORTS.items():
            launcher.spawn([sys.executable, "-m", "ttperm.cli"]
                           + command.split())
            path = os.path.join(tmp, name + ".json")
            shutil.copyfile(os.path.join(tmp, "stdout"), path)
            paths[name] = os.path.relpath(path, ROOT)
        for commands in WORKLOADS.values():
            for command in commands:
                res = launcher.spawn([sys.executable, "-m", "ttperm.cli"]
                                     + command.format(**paths).split())
                expected[command] = {
                    "exit": res["exit"],
                    "sha256": hashlib.sha256(res["stdout"]).hexdigest()}
                print("%d %s %s" % (res["exit"], expected[command]["sha256"],
                                    command))
    finally:
        launcher.close()
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(os.path.dirname(__file__), "expected.json"),
              "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
