"""Print the size of the wbackhaul package as one JSON line.

    python tools/size.py [FILE ...]

lines: total lines of src/wbackhaul/*.py (or of the FILEs given);
code_lines: those lines that hold code, by tokenize, leaving out blank,
comment and docstring lines; root_names: the public names of the package
root, counted as tests/test_api.py counts them.
"""
import json
import sys
import tokenize
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# tokens that never make a line a code line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Lines holding a token other than layout, comments and docstrings.

    A docstring is a string that makes a whole logical line on its own.
    """
    lines: set[int] = set()
    logical: list = []  # the tokens of the current logical line

    def close():
        if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
            for tok in logical:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        logical.clear()

    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NEWLINE:
                close()
            elif tok.type not in _LAYOUT:
                logical.append(tok)
    close()
    return len(lines)


def root_names() -> int:
    sys.path.insert(0, str(SRC))
    import wbackhaul as wb
    # dir() lists the names the root loads on first use as well
    return sum(1 for name in dir(wb) if not name.startswith("_")
               and not isinstance(getattr(wb, name), types.ModuleType))


def main(argv: list) -> None:
    files = [Path(a) for a in argv] or sorted((SRC / "wbackhaul").glob("*.py"))
    print(json.dumps({
        "lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files),
        "code_lines": sum(code_lines(p) for p in files),
        "root_names": root_names(),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
