"""Compare two minitrain checkouts with the checks for a change meant to keep behaviour.

Usage: python tests/gate.py <parent> <change> <out-dir>

Runs ``same_numbers.py`` and then ``reach.py``, the copies beside this script,
on each checkout, each run in a Python process of its own, with its files
under ``<out-dir>/<parent|change>/<script>/`` and its output in
``<out-dir>/<parent|change>/<script>.txt``. Prints the unified diff of each
pair of outputs. The ``reach.py`` lists are diffed without their line
numbers, since a line that a change deletes or adds moves the numbers of the
lines after it; the files keep them. Then prints the line totals of both
checkouts' ``src/`` Python files, counted as ``wc -l`` counts them. Exits 1 if the ``same_numbers.py`` lines
differ or a run fails, else 0; the ``reach.py`` diff is for reading. Not a
test module, so pytest does not collect it.
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPTS = ("same_numbers", "reach")


def run(script: str, checkout: Path, out: Path) -> tuple[list[str], bool]:
    work = out / script
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / f"{script}.py"), str(checkout), str(work)],
                          capture_output=True, text=True)
    (out / f"{script}.txt").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        print(f"{script}.py {checkout} exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines(keepends=True)
    if script == "reach":
        lines = [re.sub(r"^(\S+):\d+: ", r"\1: ", line) for line in lines]
    return lines, proc.returncode == 0


def src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def main(parent: str, change: str, out_dir: str) -> int:
    out = Path(out_dir).resolve()
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    ok = True
    for script in SCRIPTS:
        lines = {}
        for side, checkout in sides.items():
            lines[side], ran = run(script, checkout, out / side)
            ok &= ran
        diff = list(difflib.unified_diff(lines["parent"], lines["change"],
                                         f"parent {script}.py", f"change {script}.py"))
        print(f"== {script}.py: {'differs' if diff else 'same output'}")
        sys.stdout.writelines(diff)
        ok &= not (script == "same_numbers" and diff)
    totals = {side: src_lines(checkout) for side, checkout in sides.items()}
    print(f"== src/ lines: parent {totals['parent']}, change {totals['change']} "
          f"({totals['change'] - totals['parent']:+d})")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(*sys.argv[1:]))
