"""The package exports the description API; the per-strategy wrappers live
only in their modules, and nothing but the benchmark reads them."""

import ast
from pathlib import Path

import fdrelay
from fdrelay import feasibility, strategies

ROOT = Path(__file__).resolve().parent.parent

PER_STRATEGY = ["caps_1ts", "caps_2ts", "caps_hd",
                "powers_1ts", "powers_2ts", "powers_hd",
                "energy_1ts", "energy_2ts", "energy_hd",
                "energy_1ts_at", "energy_2ts_at", "energy_hd_at"]
WINDOWS = ["tmin_1ts", "tmin_2ts", "tmin_hd"]

# Each wrapper's defining module.
DEFINED_IN = {**dict.fromkeys(PER_STRATEGY, ROOT / "src/fdrelay/strategies.py"),
              **dict.fromkeys(WINDOWS, ROOT / "src/fdrelay/feasibility.py")}
# The benchmark's tracer test resolves every name the tracer patches, and
# this file checks the wrappers themselves.
UNCHECKED = {ROOT / "tests/test_bench_tracing.py", Path(__file__).resolve()}


def test_exports_the_description_api():
    assert fdrelay.DESCRIPTIONS is strategies.DESCRIPTIONS
    assert fdrelay.Description is strategies.Description
    assert fdrelay.Slot is strategies.Slot
    assert fdrelay.tmin_for is feasibility.tmin_for


def test_per_strategy_wrappers_are_not_reexported():
    assert [name for name in PER_STRATEGY if hasattr(fdrelay, name)] == []
    assert all(hasattr(strategies, name) for name in PER_STRATEGY)


def test_only_the_benchmarked_windows_stay():
    assert fdrelay.tmin_1ts is feasibility.tmin_1ts
    assert fdrelay.tmin_2ts is feasibility.tmin_2ts
    assert fdrelay.tmin_hd is feasibility.tmin_hd
    assert not hasattr(fdrelay, "tmin_slots")


def _wrappers_named(path: Path) -> list[str]:
    """Where the code of ``path`` names a wrapper: as a name, an attribute,
    an import, a definition or a whole string.  Not counted: a wrapper's
    definition in its own module, an import marked ``# noqa: F401`` (kept
    for the benchmark's span tracer), and the package's import of the
    windows, which bench/workloads.py imports from it."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                "# noqa: F401" in lines[node.lineno - 1]
                or (path == ROOT / "src/fdrelay/__init__.py"
                    and node.module == "feasibility")):
            exempt.update(id(alias) for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and id(node) not in exempt:
            name = node.name
        elif isinstance(node, ast.FunctionDef):
            name = None if DEFINED_IN.get(node.name) == path else node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in DEFINED_IN:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_no_code_reads_the_per_strategy_wrappers():
    """Only the benchmark reads the wrappers: the package, the tests and the
    demos go through ``DESCRIPTIONS`` and ``tmin_for``."""
    paths = sorted(path.resolve() for top in ("src", "tests", "demos")
                   for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 40
    found = [hit for path in paths if path not in UNCHECKED
             for hit in _wrappers_named(path)]
    assert found == []
