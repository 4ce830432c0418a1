"""Every import edge in ``src/repro`` points down one layer table.

:data:`LAYERS` orders every package of ``repro`` bottom to top.  Every
module is parsed (not imported), and every import statement in it —
function-local ones included — is resolved to an absolute module name
and checked: a module may import its own package and packages on lower
rows, nothing on its own row or above.

Above the table sit the entry-point modules (:data:`ENTRY_POINTS` and
every ``__main__``) and the ``repro`` package facade.  They may import
anything; nothing but a ``__main__`` may import an entry-point module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package, bottom to top; packages on one row do not import each other.
LAYERS = (
    ("obs", "analysis"),
    ("queueing",),
    ("core",),
    ("virtualization",),
    ("workloads",),
    ("cluster",),
    ("simulation",),
    ("control",),
    ("parallel",),
    ("experiments",),
    ("service",),
    ("reporting",),
)
RANK = {package: rank for rank, row in enumerate(LAYERS) for package in row}

#: Command-line modules; with every ``__main__`` they form the top tier.
ENTRY_POINTS = (
    "repro.cli",
    "repro.experiments.runner",
    "repro.service.server",
    "repro.reporting.benchcli",
    "repro.reporting.reportcli",
)


def _module_name(path: Path, root: Path = SRC) -> tuple[str, str]:
    """``(module, package)`` dotted names of a source file under ``root``."""
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
        return ".".join(parts), ".".join(parts)
    return ".".join(parts), ".".join(parts[:-1])


def imported_modules(path: Path, root: Path = SRC) -> list[tuple[int, str]]:
    """``(line, absolute module)`` for every import in ``path``."""
    _module, package = _module_name(path, root)
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package.split(".")
                base_parts = base_parts[: len(base_parts) - (node.level - 1)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}"
            else:
                base = node.module
            out.append((node.lineno, base))
            # ``from repro import parallel`` names a module, not an attribute.
            out.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
    return out


def is_entry_point(module: str) -> bool:
    return module.split(".")[-1] == "__main__" or any(
        module == entry or module.startswith(f"{entry}.") for entry in ENTRY_POINTS
    )


def violation(source: str, target: str) -> str | None:
    """Why the edge ``source -> target`` breaks the table, else ``None``."""
    if not target.startswith("repro."):
        return None  # outside the package, or the root package itself
    if is_entry_point(target):
        if source.split(".")[-1] != "__main__":
            return "imports an entry point"
        return None
    if source == "repro" or is_entry_point(source):
        return None
    src_pkg, dst_pkg = source.split(".")[1], target.split(".")[1]
    if dst_pkg not in RANK:
        return f"imports {dst_pkg!r}, which is not in the layer table"
    if src_pkg == dst_pkg:
        return None
    if RANK[dst_pkg] >= RANK[src_pkg]:
        return "imports upward"
    return None


def violations(path: Path, root: Path = SRC) -> list[str]:
    source, _package = _module_name(path, root)
    out = []
    for line, target in imported_modules(path, root):
        reason = violation(source, target)
        if reason is not None:
            out.append(f"{path.relative_to(root)}:{line} {reason}: {target}")
    return out


def test_every_package_is_in_the_table():
    packages = {p.parent.name for p in (SRC / "repro").glob("*/__init__.py")}
    assert packages == set(RANK)
    roots = {p.stem for p in (SRC / "repro").glob("*.py")}
    assert roots == {"__init__", "__main__", "cli"}


@pytest.mark.parametrize("layer", [p for row in LAYERS for p in row])
def test_lower_layers_do_not_import_upward(layer):
    sources = sorted((SRC / "repro" / layer).rglob("*.py"))
    assert sources, f"no modules found under repro/{layer}"
    assert [v for path in sources for v in violations(path)] == []


def test_only_the_entry_point_imports_cli():
    roots = sorted((SRC / "repro").glob("*.py"))
    assert [v for path in roots for v in violations(path)] == []
    main = SRC / "repro" / "__main__.py"
    assert any(m == "repro.cli" for _line, m in imported_modules(main))


def test_resolver_sees_relative_and_function_local_imports(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    mod = pkg / "bad.py"
    mod.write_text(
        "from ..obs import get_registry\n"
        "def f():\n"
        "    from ..parallel.sweep import sweep_map\n"
        "    from .. import cli\n"
        "    import repro.service.app\n"
        "    from ..obs import __version__\n"
    )
    found = {m for _line, m in imported_modules(mod, tmp_path)}
    assert {"repro.obs", "repro.parallel.sweep", "repro.cli", "repro.service.app"} <= found
    assert violations(mod, tmp_path) == [
        "repro/core/bad.py:3 imports upward: repro.parallel.sweep",
        "repro/core/bad.py:3 imports upward: repro.parallel.sweep.sweep_map",
        "repro/core/bad.py:4 imports an entry point: repro.cli",
        "repro/core/bad.py:5 imports upward: repro.service.app",
    ]


def test_table_rules():
    assert violation("repro.core.model", "repro.obs.registry") is None
    assert violation("repro.obs.export", "repro.analysis.stats") == "imports upward"
    assert violation("repro.core.model", "repro.core.power") is None
    assert violation("repro.reporting.report", "repro.experiments") is None
    assert violation("repro.experiments.runner", "repro.reporting.report") is None
    assert violation("repro.reporting.report", "repro.experiments.runner") == (
        "imports an entry point"
    )
    assert violation("repro.experiments.__main__", "repro.experiments.runner") is None
    assert violation("repro.obs.export", "repro.__version__") == (
        "imports '__version__', which is not in the layer table"
    )
