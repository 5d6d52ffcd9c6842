"""The README against the package source: it names every name the package
exports, and every backticked `module.name` in it (`sq.` for the package)
names something the module defines. Read with ast, without importing."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "squidring"
README = (ROOT / "README.md").read_text()
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))


def _body(module: str) -> list:
    return ast.parse((PACKAGE / f"{module}.py").read_text()).body


def _bindings(body: list) -> dict:
    """Each name a module or class body binds, with the statement binding it."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, ast.ImportFrom):
            names.update((alias.asname or alias.name, node) for alias in node.names)
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [
                getattr(node, "target", None)]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return names


def _resolves(module: str, path: list[str]) -> bool:
    """Whether module.path[0].path[1]... names a definition: an import is
    followed into the package module it comes from, the rest into classes."""
    node = _bindings(_body(module)).get(path[0])
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return _resolves(node.module, path)
    for name in path[1:]:
        if not isinstance(node, ast.ClassDef):
            return False
        node = _bindings(node.body).get(name)
    return node is not None


def _exports() -> list[str]:
    return [alias.asname or alias.name for node in _body("__init__")
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_readme_names_every_export():
    """In backticks, or as sq.<name> in the example code."""
    missing = [name for name in _exports()
               if not re.search(rf"(`|\bsq\.){name}\b", README)]
    assert not missing, f"exported but not named in README.md: {missing}"


def test_readme_module_names_resolve():
    pattern = rf"`(sq|{'|'.join(MODULES)})\.([A-Za-z_][\w.]*)`"
    refs = re.findall(pattern, README)
    assert ("dynamics", "WINDOW_MAP_MAX_DIM") in refs and ("experiments", "SWEEP_BLOCK") in refs
    unresolved = [f"{module}.{name}" for module, name in refs
                  if not _resolves("__init__" if module == "sq" else module, name.split("."))]
    assert not unresolved, f"README.md names what the package does not define: {unresolved}"
