import ast
from pathlib import Path

import hqmmsym

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    assert [name for name in hqmmsym.__all__ if not hasattr(hqmmsym, name)] == []
    assert len(set(hqmmsym.__all__)) == len(hqmmsym.__all__)
    namespace = {}
    exec("from hqmmsym import *", namespace)
    assert set(hqmmsym.__all__) <= set(namespace)


def _loaded_names(path: Path) -> set[str]:
    """Every name that path reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _traced_names() -> set[str]:
    """The last component of each entry of TARGETS in bench/tracing.py."""
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {target.rsplit(".", 1)[-1] for target in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_every_exported_name_has_a_consumer():
    # a name stays public only if the library, the CLI or the bench reads it;
    # tests and demos do not count
    modules = [p for p in (ROOT / "src" / "hqmmsym").glob("*.py") if p.name != "__init__.py"]
    consumed = _traced_names().union(
        *(_loaded_names(p) for p in modules + sorted((ROOT / "bench").glob("*.py")))
    )
    assert sorted(set(hqmmsym.__all__) - consumed) == []
