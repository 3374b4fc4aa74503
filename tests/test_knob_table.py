"""The README's "Scaling knobs" table names every environment knob.

Each ``REDS_*`` variable that ``src/`` or ``benchmarks/`` reads has a
row, and each ``REDS_*`` row names a variable that is still read, so a
knob can be neither added silently nor retired while its row lingers.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: ``os.environ.get("REDS_X"``, ``os.getenv("REDS_X"`` and
#: ``os.environ["REDS_X"]`` when it is not the target of an assignment.
_READ = re.compile(
    r"""(?:os\.environ\.get|os\.getenv)\(\s*["'](REDS_\w+)["']"""
    r"""|os\.environ\[\s*["'](REDS_\w+)["']\s*\](?!\s*=[^=])""")


def _read_variables() -> set[str]:
    names = set()
    for folder in ("src", "benchmarks"):
        for path in (ROOT / folder).rglob("*.py"):
            for match in _READ.finditer(path.read_text()):
                names.add(match.group(1) or match.group(2))
    return names


def _table_variables() -> set[str]:
    text = (ROOT / "README.md").read_text()
    section = text.split("#### Scaling knobs", 1)[1].split("\n#", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("|"):
            knob = line.split("|")[1]
            names.update(re.findall(r"REDS_\w+", knob))
    return names


def test_every_read_variable_has_a_row():
    read = _read_variables()
    assert "REDS_FAULT_PLAN" in read
    assert read - _table_variables() == set()


def test_every_row_names_a_read_variable():
    rows = _table_variables()
    assert "REDS_ENGINE" in rows
    assert rows - _read_variables() == set()
