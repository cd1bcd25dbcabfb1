"""Print the size of the package's surface: its line count and the number of
values a caller can set independently.

A settable value is a parameter with a default (positional or keyword-only)
of a function or method, or a class-level field with a default value (a
dataclass or NamedTuple field) other than a ``field(init=False)``, which no
caller sets.  Required parameters and the config keys of ``cli.KEYS`` are
not counted.  Run:

    python tools/surface.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "diracmaxwell"


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in value.keywords)


def settable_values(tree: ast.AST) -> list:
    """(line, name) of each parameter default and defaulted class field."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(d.lineno, f"{node.name}({a.arg})") for a, d in zip(positional[::-1], args.defaults[::-1])]
            found += [(d.lineno, f"{node.name}({a.arg})") for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        elif isinstance(node, ast.ClassDef):
            found += [(s.lineno, f"{node.name}.{s.target.id}") for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.value is not None and not _init_false(s.value)]
    return found


def main() -> None:
    files = sorted(PACKAGE.rglob("*.py"))
    lines = sum(len(f.read_bytes().splitlines()) for f in files)
    values = [(f.name, *v) for f in files for v in settable_values(ast.parse(f.read_text(), str(f)))]
    for name, line, what in sorted(values):
        print(f"  {name}:{line}: {what}")
    print(f"lines: {lines}")
    print(f"settable values: {len(values)}")


if __name__ == "__main__":
    main()
