"""Layout rule: `src/hilmod` holds only code that the system runs.

Every top-level function, class and module constant of the package must be
reached, transitively over AST references, from the command line
(`cli.py`), the scripts (`scripts/*.py`), the benchmark (`perfbench/*.py`)
or the package's own module-level code.  Code reached from the tests alone
belongs in the tests (`tests/oracles.py`).

References are resolved by name through each file's imports: a bare name
is the module's own definition or what it imported under that name, and
`mod.name` is `name` in an imported package module.  Names that a module
re-exports are followed to their definition.  Within the package, a
definition's references (body, decorators, defaults and annotations) are
its edges; a module constant's edges are its value's references.  The
benchmark's traced layers are named by ("module", "function") string pairs,
and outside the package such pairs count as references too.  Dunder names
are not checked.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hilmod"
ROOT_DIRS = (ROOT / "scripts", ROOT / "perfbench")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _imports(tree: ast.Module, modules: set[str]) -> dict[str, tuple]:
    """Local name -> ("module", m) for a package module, or ("name", m, n) for
    name n imported from package module m ("__init__" for the package)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None or node.module == "hilmod":
                src = "__init__"
            elif node.level == 1:
                src = node.module
            elif node.module and node.module.startswith("hilmod."):
                src = node.module[len("hilmod."):]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if src == "__init__" and alias.name in modules:
                    out[local] = ("module", alias.name)
                else:
                    out[local] = ("name", src, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hilmod.") and alias.asname:
                    out[alias.asname] = ("module", alias.name[len("hilmod."):])
    return out


def _references(nodes, imports: dict, own: str | None):
    """(module, name) pairs that the AST nodes refer to; own is the module
    whose top-level names bare names may denote (None outside the package)."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                target = imports.get(node.id)
                if target and target[0] == "name":
                    yield target[1], target[2]
                elif own is not None and not target:
                    yield own, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = imports.get(node.value.id)
                if target and target[0] == "module":
                    yield target[1], node.attr
            elif own is None and isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                yield node.elts[0].value, node.elts[1].value


def _targets(node) -> list[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unreached(package=PACKAGE, root_dirs=ROOT_DIRS) -> list[str]:
    """'module.name' of every definition in the package directory that no
    root reaches (the package is imported as `hilmod` by the roots)."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    modules = set(trees)
    imports = {m: _imports(t, modules) for m, t in trees.items()}
    defs, edges, roots = {}, {}, set()
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, body = [node.name], node
            else:
                names = _targets(node)
                body = node.value if names and node.value is not None else node
            refs = set(_references([body], imports[mod], mod))
            if not names:
                roots |= refs
            if mod == "cli":
                roots |= {(mod, name) for name in names}
            for name in names:
                defs[(mod, name)] = node
                edges.setdefault((mod, name), set()).update(refs)
    for path in sorted(p for d in root_dirs for p in d.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots |= set(_references([tree], _imports(tree, modules), None))

    def resolve(mod, name, seen=()):
        """Follow a re-export to its definition, or None."""
        if (mod, name) in defs:
            return mod, name
        target = imports.get(mod, {}).get(name)
        if target and target[0] == "name" and (mod, name) not in seen:
            return resolve(target[1], target[2], seen + ((mod, name),))
        return None

    reached, stack = set(), [r for r in (resolve(*ref) for ref in roots) if r]
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        stack.extend(r for r in (resolve(*ref) for ref in edges.get(key, ())) if r)
    return sorted("%s.%s" % key for key in defs
                  if key not in reached and not _is_dunder(key[1]) and key[0] != "__main__")


def test_every_package_definition_is_reached_outside_the_tests():
    culprits = unreached()
    assert not culprits, "reached from the tests only: " + ", ".join(culprits)


def test_the_package_has_no_fraction_maths():
    # one exact arithmetic: the integer ring coordinates of `fields`
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            culprits += [path.name for name in names if name.split(".")[0] == "fractions"]
    assert not culprits, "imports fractions: " + ", ".join(culprits)


def test_the_scan_names_what_only_tests_reach(tmp_path):
    # a scan that resolved nothing, or everything, would pass the rule above
    # vacuously: on a small package it keeps exactly what the roots reach
    pkg, scripts = tmp_path / "hilmod", tmp_path / "scripts"
    pkg.mkdir()
    scripts.mkdir()
    (pkg / "__init__.py").write_text("from .a import run\n")
    (pkg / "a.py").write_text(
        "from .b import helper\n"
        "TABLE = {1: lambda: _leaf()}\n"
        "def _leaf(): pass\n"
        "def run(): return helper() + TABLE[1]()\n"
        "def only_tested(): return _also_dead()\n"
        "def _also_dead(): pass\n")
    (pkg / "b.py").write_text("LIMIT = 3\ndef helper(): return LIMIT\ndef traced(): pass\n"
                              "SPARE = 4\n")
    (pkg / "cli.py").write_text("from . import a\ndef main(): return 0\n")
    (scripts / "go.py").write_text("from hilmod import run\nrun()\nTRACED = ((\"b\", \"traced\"),)\n")
    assert unreached(pkg, (scripts,)) == ["a._also_dead", "a.only_tested", "b.SPARE"]
    (scripts / "more.py").write_text("import hilmod.a as A\nA.only_tested()\n")
    assert unreached(pkg, (scripts,)) == ["b.SPARE"]
