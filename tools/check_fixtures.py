"""Check that tools/gen_fixtures.py regenerates the shipped fixtures exactly.

Copies src/ and tools/ into a temporary directory, empties the copied
fixture directory, runs gen_fixtures.py there, and compares every .mdg file
byte for byte with src/mdgkit/fixtures/.  Takes no options.  Run from
anywhere:

    python3 tools/check_fixtures.py

Exits 0 when every fixture is regenerated byte-identically, 1 otherwise.
The whole run takes about 1 s on a 2-vCPU Linux host with CPython 3.11.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FIXTURES = os.path.join("src", "mdgkit", "fixtures")


def main() -> int:
    shipped = sorted(n for n in os.listdir(os.path.join(ROOT, FIXTURES))
                     if n.endswith(".mdg"))
    with tempfile.TemporaryDirectory() as tmp:
        ignore = shutil.ignore_patterns("__pycache__")
        for part in ("src", "tools"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=ignore)
        out_dir = os.path.join(tmp, FIXTURES)
        for name in shipped:
            os.remove(os.path.join(out_dir, name))
        run = subprocess.run(
            [sys.executable, os.path.join("tools", "gen_fixtures.py")],
            cwd=tmp, capture_output=True, text=True)
        if run.returncode != 0:
            print(run.stdout + run.stderr, end="")
            print(f"gen_fixtures.py exited {run.returncode}")
            return 1
        made = sorted(n for n in os.listdir(out_dir) if n.endswith(".mdg"))
        identical = 0
        for name in sorted(set(shipped) | set(made)):
            if name not in made:
                status = "not regenerated"
            elif name not in shipped:
                status = "generated but not shipped"
            else:
                with open(os.path.join(ROOT, FIXTURES, name), "rb") as f:
                    want = f.read()
                with open(os.path.join(out_dir, name), "rb") as f:
                    got = f.read()
                status = "identical" if got == want else "DIFFERS"
            identical += status == "identical"
            print(f"{name}: {status}")
        ok = identical == len(shipped) == len(made)
    print(f"{identical} of {len(shipped)} fixtures byte-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
