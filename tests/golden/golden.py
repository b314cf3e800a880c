#!/usr/bin/env python3
"""Golden refinement artifacts: pinned `pstab --json --history` documents.

    python3 tests/golden/golden.py check PSTAB NAME   # one case, exit 1 on drift
    python3 tests/golden/golden.py regen PSTAB        # rewrite every document

PSTAB is the path of the built `pstab` binary.  The cases are the lines of
cases.txt next to this script: `<name> <pstab arguments>`, pinned document
<name>.json.  `check` runs one case and compares the document byte for byte
(ctest registers one `golden_<name>` test per line).  `regen` is for a
reviewed change of the numerics only: commit the new documents together
with the change that moved them.

Both modes drop the environment variables that change the matrices or the
document (size caps, Matrix Market overrides, telemetry), so the documents
are those of the default suite.  Backend and thread-count variables stay:
the documents are byte-identical across them by contract.
"""
import difflib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
UNSET = ("PSTAB_SIZE_CAP", "PSTAB_LARGE_SIZE_CAP", "PSTAB_MTX_DIR",
         "PSTAB_TELEMETRY", "PSTAB_RESULTS_DIR")


def cases():
    out = {}
    with open(os.path.join(HERE, "cases.txt")) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                name, *args = line.split()
                out[name] = args
    return out


def run(pstab, args, path):
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    subprocess.run([pstab, *args, "--json", path], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def check(pstab, name):
    want_path = os.path.join(HERE, name + ".json")
    with tempfile.TemporaryDirectory() as tmp:
        got_path = os.path.join(tmp, name + ".json")
        run(pstab, cases()[name], got_path)
        with open(got_path) as f:
            got = f.read()
    with open(want_path) as f:
        want = f.read()
    if got == want:
        return 0
    # The documents are one line each: diff them one JSON member a line.
    split = lambda s: s.replace(",", ",\n").splitlines(keepends=True)
    sys.stdout.writelines(difflib.unified_diff(
        split(want), split(got), want_path, "pstab " + " ".join(cases()[name])))
    print(f"\ngolden: {name}: document drifted from {want_path}")
    return 1


def regen(pstab):
    for name, args in cases().items():
        run(pstab, args, os.path.join(HERE, name + ".json"))
        print(f"golden: wrote {name}.json")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "check":
        return check(argv[2], argv[3])
    if len(argv) == 3 and argv[1] == "regen":
        return regen(argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
