"""Compare two minitrain checkouts with the checks for a change meant to keep behaviour.

Usage: python tests/gate.py <parent> <change> <out-dir>

Runs ``reach.py``, the copy beside this script, once on each checkout, in a
Python process of its own, with its files under ``<out-dir>/<parent|change>/reach/``
and its output in ``<out-dir>/<parent|change>/reach.txt``. That output holds
the lines ``same_numbers.py`` prints, then the list of unreached ``src/``
lines. Prints the unified diff of the two checkouts' ``same_numbers.py``
lines, then of their lists. The lists are diffed without their line numbers,
since a line that a change deletes or adds moves the numbers of the lines
after it; the files keep them. Then runs ``same_numbers.py``, the copy
beside this script, on the change once more, serially: in a process of its
own with ``OPENBLAS_NUM_THREADS=1``, so the engine starts no worker, with its
files under ``<out-dir>/change/serial/`` and its output in
``<out-dir>/change/serial.txt``. Prints the diff of those lines against the
change's lines from ``reach.py``, which ran with the process's BLAS threads.
Then prints the line totals of both checkouts' ``src/`` Python files,
counted as ``wc -l`` counts them. Exits 1 if the parent's and the change's
``same_numbers.py`` lines differ, if the change's serial lines differ from
its others, or if a run fails, else 0; the list diff is for reading. Not a
test module, so pytest does not collect it.
"""

import difflib
import os
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


def serial_lines(checkout: Path, out: Path) -> tuple[list[str], bool]:
    """The ``same_numbers.py`` lines of ``checkout`` under a one-thread BLAS, and whether it exited 0."""
    work = out / "serial"
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "same_numbers.py"), str(checkout), str(work)],
                          capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    (out / "serial.txt").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        print(f"same_numbers.py {checkout} with OPENBLAS_NUM_THREADS=1 exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.splitlines(keepends=True), proc.returncode == 0


def show_diff(name: str, before: list[str], after: list[str], labels: tuple[str, str]) -> bool:
    """Print the unified diff of two outputs under a ``== name`` header; whether they differ."""
    diff = list(difflib.unified_diff(before, after, *labels))
    print(f"== {name}: {'differs' if diff else 'same output'}")
    sys.stdout.writelines(diff)
    return bool(diff)


def src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def main(parent: str, change: str, out_dir: str) -> int:
    out = Path(out_dir).resolve()
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = {side: run(checkout, out / side) for side, checkout in sides.items()}
    ok = all(ran for _, _, ran in runs.values())
    for i, name in enumerate(("same_numbers.py", "reach.py")):
        differs = show_diff(name, runs["parent"][i], runs["change"][i], (f"parent {name}", f"change {name}"))
        ok &= not (name == "same_numbers.py" and differs)
    serial, ran = serial_lines(sides["change"], out / "change")
    differs = show_diff("same_numbers.py serial", runs["change"][0], serial,
                        ("change same_numbers.py", "change same_numbers.py, OPENBLAS_NUM_THREADS=1"))
    ok &= ran and not differs
    totals = {side: src_lines(checkout) for side, checkout in sides.items()}
    print(f"== src/ lines: parent {totals['parent']}, change {totals['change']} "
          f"({totals['change'] - totals['parent']:+d})")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(*sys.argv[1:]))
