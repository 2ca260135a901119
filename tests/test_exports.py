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


def _public_definitions(path: Path) -> set[str]:
    """Each public module-level function, as module.name, and public method, as module.Class.name."""
    body = ast.parse(path.read_text()).body
    found = {f"{path.stem}.{f.name}" for f in body if isinstance(f, ast.FunctionDef)}
    for c in body:
        if isinstance(c, ast.ClassDef):
            found |= {f"{path.stem}.{c.name}.{f.name}" for f in c.body if isinstance(f, ast.FunctionDef)}
    return {name for name in found if not name.rsplit(".", 1)[-1].startswith("_")}


def test_every_exported_name_has_a_consumer():
    # a name stays public only if the library, the CLI or the bench reads it;
    # tests and demos do not count.  That holds for every name in __all__
    # and for every public function and method of the package's modules.
    modules = [p for p in (ROOT / "src" / "hqmmsym").glob("*.py") if p.name != "__init__.py"]
    consumed = _traced_names().union(
        *(_loaded_names(p) for p in modules + sorted((ROOT / "bench").glob("*.py")))
    )
    assert sorted(set(hqmmsym.__all__) - consumed) == []
    public = set().union(*(_public_definitions(p) for p in modules))
    assert sorted(name for name in public if name.rsplit(".", 1)[-1] not in consumed) == []
