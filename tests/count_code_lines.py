"""Count the code lines of the package: lines that hold code, not docstrings, comments or blanks.

A line counts when a token other than a comment, a docstring or layout
(newlines, indents) starts or runs over it. A docstring is a string that is
a statement by itself, so a module's, class's or function's docstring is
left out, and so is any other bare string statement. Run it from the root
of the repository::

    python tests/count_code_lines.py          # the total
    python tests/count_code_lines.py -v       # and each file's count
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptdep"

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.COMMENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with tokenize.open(path) as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type != tokenize.COMMENT]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        before = tokens[i - 1].type if i else tokenize.NEWLINE
        after = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.NEWLINE
        if (tok.type == tokenize.STRING and after in (tokenize.NEWLINE, tokenize.ENDMARKER)
                and before in (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT)):
            continue  # a string statement: a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    counts = {p.name: code_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    if "-v" in argv:
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
    print(sum(counts.values()))


if __name__ == "__main__":
    main(sys.argv[1:])
