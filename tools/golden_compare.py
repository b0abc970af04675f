"""Compare the golden outputs of a base commit and of a change.

    python3 tools/golden_compare.py BASE HEAD MOVED

BASE and HEAD are outputs of tools/golden_ab.py, one line per command, each
line starting with the command's label. MOVED names, one per line, the
labels whose lines the change moves on purpose; blank lines and lines
starting with ``#`` are skipped. The comparison passes, with exit status 0,
when

* with the listed labels dropped from both outputs, the base lines are the
  first lines of the head output, byte for byte (new commands are only
  appended), and
* every listed label has a line in both outputs, and the two lines differ.

Otherwise it prints what failed and exits 1. It uses the standard library
only.
"""

import difflib
import sys
from pathlib import Path


def labelled_lines(path) -> list:
    """(label, line) for each line of a golden output."""
    return [(line.split(" ", 1)[0], line) for line in Path(path).read_text().splitlines()]


def listed_labels(path) -> set:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def faults(base: list, head: list, moved: set) -> list:
    """What fails in comparing the (label, line) pairs of base and head."""
    problems = []
    base_lines, head_lines = dict(base), dict(head)
    for label in sorted(moved):
        if label not in base_lines or label not in head_lines:
            problems.append(f"{label} is listed as moved, but is not in both outputs")
        elif base_lines[label] == head_lines[label]:
            problems.append(f"{label} is listed as moved, but its line did not change")
    kept_base = [line for label, line in base if label not in moved]
    kept_head = [line for label, line in head if label not in moved][:len(kept_base)]
    if kept_head != kept_base:
        problems.append("unlisted lines changed:")
        problems += difflib.unified_diff(kept_base, kept_head, "base", "head", lineterm="")
    return problems


def main(argv) -> int:
    base, head, moved = argv
    problems = faults(labelled_lines(base), labelled_lines(head), listed_labels(moved))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
