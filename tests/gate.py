"""Compare two minitrain checkouts with the checks for a change meant to keep behaviour.

Usage: python tests/gate.py <parent> <change> <out-dir>

Runs ``reach.py``, the copy beside this script, once on each checkout, in a
Python process of its own, with its files under ``<out-dir>/<parent|change>/reach/``
and its output in ``<out-dir>/<parent|change>/reach.txt``. That output holds
the lines ``same_numbers.py`` prints, then the list of unreached ``src/``
lines. Prints the unified diff of the two checkouts' ``same_numbers.py``
lines, then of their lists. The lists are diffed without their line numbers,
since a line that a change deletes or adds moves the numbers of the lines
after it; the files keep them. Then prints the line totals of both
checkouts' ``src/`` Python files, counted as ``wc -l`` counts them. Exits 1
if the ``same_numbers.py`` lines differ or a run fails, else 0; the list
diff is for reading. Not a test module, so pytest does not collect it.
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
UNREACHED = re.compile(r"^(src/\S+):\d+: ")


def run(checkout: Path, out: Path) -> tuple[list[str], list[str], bool]:
    """The ``same_numbers.py`` lines, the unreached list without line numbers, and whether it exited 0."""
    work = out / "reach"
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "reach.py"), str(checkout), str(work)],
                          capture_output=True, text=True)
    (out / "reach.txt").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        print(f"reach.py {checkout} exited {proc.returncode}\n{proc.stderr}")
    digests, unreached = [], []
    for line in proc.stdout.splitlines(keepends=True):
        if UNREACHED.match(line) or line.endswith(" lines not reached\n"):
            unreached.append(UNREACHED.sub(r"\1: ", line))
        else:
            digests.append(line)
    return digests, unreached, proc.returncode == 0


def src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def main(parent: str, change: str, out_dir: str) -> int:
    out = Path(out_dir).resolve()
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = {side: run(checkout, out / side) for side, checkout in sides.items()}
    ok = all(ran for _, _, ran in runs.values())
    for i, name in enumerate(("same_numbers.py", "reach.py")):
        diff = list(difflib.unified_diff(runs["parent"][i], runs["change"][i],
                                         f"parent {name}", f"change {name}"))
        print(f"== {name}: {'differs' if diff else 'same output'}")
        sys.stdout.writelines(diff)
        ok &= not (name == "same_numbers.py" and diff)
    totals = {side: src_lines(checkout) for side, checkout in sides.items()}
    print(f"== src/ lines: parent {totals['parent']}, change {totals['change']} "
          f"({totals['change'] - totals['parent']:+d})")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(*sys.argv[1:]))
