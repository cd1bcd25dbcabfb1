import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("surface", ROOT / "tools" / "surface.py")
surface = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(surface)

SAMPLE = '''
from dataclasses import dataclass, field


def f(a, b=1, *, c=2, d):
    pass


@dataclass
class C:
    x: int
    y: int = 3
    z: list = field(init=False)
'''


def test_settable_values_counts_defaults_and_skips_init_false_fields():
    found = sorted(name for _, name in surface.settable_values(ast.parse(SAMPLE)))
    assert found == ["C.y", "f(b)", "f(c)"]


def test_main_prints_the_package_line_count(capsys):
    surface.main()
    out = capsys.readouterr().out.splitlines()
    files = sorted((ROOT / "src" / "diracmaxwell").glob("*.py"))
    assert files
    want = sum(len(f.read_text().splitlines()) for f in files)
    assert f"lines: {want}" in out
