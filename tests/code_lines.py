"""Code lines of each hslogic module, for one or more source trees.

    python tests/code_lines.py TREE [TREE ...]

For each tree it prints the code lines of every module under
src/hslogic and their total. A code line holds a token that is not a
comment, not layout and not part of a docstring; a docstring is any
statement made of string literals alone. Blank lines, comment lines and
docstrings are left out, so the count moves with code, not with prose.
It is a report: the exit status is 0 whatever the counts, and 2 only for
a tree without src/hslogic.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Set

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    lines: Set[int] = set()
    stmt: List[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if any(t.type != tokenize.STRING for t in stmt):
                    for t in stmt:
                        lines.update(range(t.start[0], t.end[0] + 1))
                stmt = []
            elif tok.type not in _LAYOUT:
                stmt.append(tok)
    return len(lines)


def tree_lines(tree: Path) -> Dict[str, int]:
    """Each module's code lines under tree/src/hslogic, by file name."""
    pkg = tree / "src" / "hslogic"
    if not pkg.is_dir():
        raise FileNotFoundError("%s has no src/hslogic" % tree)
    return {p.name: code_lines(p) for p in sorted(pkg.glob("*.py"))}


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    for tree in argv:
        try:
            counts = tree_lines(Path(tree))
        except FileNotFoundError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        print(tree)
        for name, n in counts.items():
            print("  %-14s %5d" % (name, n))
        print("  %-14s %5d" % ("total", sum(counts.values())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
