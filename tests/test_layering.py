"""The lower layers never import the upper ones.

``queueing``, ``core`` and ``simulation`` sit under the sweep engine, the
experiments, the service, the controller and the CLIs.  Every module of
the three packages is parsed (not imported), and every import statement
in it — function-local ones included — is resolved to an absolute module
name and checked against the packages above.  Their only upward edge is
to ``repro.obs`` for instrumentation, which is allowed.

``repro.cli`` is the top of the stack: only ``repro/__main__.py`` (the
``python -m repro`` entry point) may import it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LOWER = ("queueing", "core", "simulation")
UPPER = ("parallel", "experiments", "service", "control", "cli")


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


def _is_upper(module: str) -> bool:
    return any(
        module == f"repro.{name}" or module.startswith(f"repro.{name}.")
        for name in UPPER
    )


def _sources(layer: str) -> list[Path]:
    return sorted((SRC / "repro" / layer).rglob("*.py"))


@pytest.mark.parametrize("layer", LOWER)
def test_lower_layers_do_not_import_upward(layer):
    sources = _sources(layer)
    assert sources, f"no modules found under repro/{layer}"
    violations = [
        f"{path.relative_to(SRC)}:{line} imports {module}"
        for path in sources
        for line, module in imported_modules(path)
        if _is_upper(module)
    ]
    assert violations == []


def _imports_cli(module: str) -> bool:
    return module == "repro.cli" or module.startswith("repro.cli.")


def test_only_the_entry_point_imports_cli():
    entry = SRC / "repro" / "__main__.py"
    violations = [
        f"{path.relative_to(SRC)}:{line} imports {module}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path != entry
        for line, module in imported_modules(path)
        if _imports_cli(module)
    ]
    assert violations == []
    assert any(_imports_cli(m) for _line, m in imported_modules(entry))


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
    )
    found = {m for _line, m in imported_modules(mod, tmp_path)}
    assert {"repro.obs", "repro.parallel.sweep", "repro.cli", "repro.service.app"} <= found
    assert [m for m in sorted(found) if _is_upper(m)] == [
        "repro.cli", "repro.parallel.sweep", "repro.parallel.sweep.sweep_map",
        "repro.service.app",
    ]
    assert [m for m in sorted(found) if _imports_cli(m)] == ["repro.cli"]
