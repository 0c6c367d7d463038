"""Count code lines: lines that hold a code token, without docstrings,
comments or blank lines.

    python3 tools/src_lines.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py``; the default is
the repository's ``src/``.  Prints each module's count and then the total.
A docstring is a string that is a whole statement by itself.  Every line of
any other string counts, so a table written as one multi-line string counts
in full.  Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code; the tokenizer ends every statement with NEWLINE
# before any DEDENT or ENDMARKER.
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING,
            tokenize.ENDMARKER}
_STATEMENT_BREAKS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """Lines of `source` that hold a code token, docstrings excepted."""
    tokens = [tok for tok in
              tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in _NO_CODE]
    lines: set[int] = set()
    at_start = True  # the token starts a statement
    for tok, after in zip(tokens, tokens[1:] + tokens[-1:]):
        if tok.type in _STATEMENT_BREAKS:
            at_start = True
            continue
        if not (at_start and tok.type == tokenize.STRING
                and after.type == tokenize.NEWLINE):
            lines.update(range(tok.start[0], tok.end[0] + 1))
        at_start = False
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).parents[1] / "src"]
    modules = [m for root in roots
               for m in (sorted(root.rglob("*.py")) if root.is_dir()
                         else [root])]
    total = 0
    for module in modules:
        n = code_lines(module.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {module}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
