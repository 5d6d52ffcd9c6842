"""The README against the package source: it names every name the package
exports, and every backticked `module.name` in it (`sq.` for the package)
names something the module defines; every module-level definition of the
package is named somewhere beyond itself, and every member of its classes is
read as an attribute somewhere. Read with ast, without importing."""
import ast
import re
from collections import Counter
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


def _docstrings(tree) -> set[int]:
    """The ids of the docstring nodes in a tree."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _named(tree, skip: set[int] = frozenset()) -> Counter:
    """How often a tree names each identifier: as a name it reads, an attribute,
    an import, or a word of a string that is not a docstring (a monkeypatch or
    tracer target)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def _members(cls: ast.ClassDef) -> list[str]:
    """The fields, properties and methods a class body defines, but not dunders."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_named_beyond_itself():
    """Each module-level function, class and constant of the package is named
    outside its own definition, and each field, property and method of its
    classes is read as an attribute (`.name`): in src/, tests/, perfbench/ or
    the README."""
    trees = [ast.parse(path.read_text()) for folder in ("src", "tests", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    named = sum((_named(tree, _docstrings(tree)) for tree in trees),
                Counter(re.findall(r"[A-Za-z_]\w*", README)))
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}
    read.update(re.findall(r"\.([A-Za-z_]\w*)", README))
    unnamed = []
    for module in sorted(p.stem for p in PACKAGE.glob("*.py")):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined, own = [node.name], _named(node, _docstrings(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined, own = [t.id for t in targets if isinstance(t, ast.Name)], Counter()
            else:
                continue
            unnamed += [f"{module}.{name}" for name in defined if named[name] <= own[name]]
            if isinstance(node, ast.ClassDef):
                unnamed += [f"{module}.{node.name}.{name}" for name in _members(node)
                            if name not in read]
    assert not unnamed, f"defined but never named beyond the definition: {unnamed}"
