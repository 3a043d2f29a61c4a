"""Every public top-level function, class and method in src is used by src itself.

An API that only tests call is a second code path the program never runs;
tests should exercise the path the program takes instead.

A use of a top-level name counts only when it resolves to the module that
defines it: ``from .module import name``, ``alias.name`` where ``alias`` is
bound to that module, or a bare ``name`` inside the module itself.  The
re-exports in ``__init__.py`` do not count.  A public method counts as used
when its name is read as an attribute of anything but a module alias.
References inside a definition's own body never count.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "textvae"


def _module_aliases(tree, modules) -> dict[str, str]:
    """Local name -> module for every module a file imports (src modules by file stem)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            for a in node.names:
                if a.name in modules:
                    aliases[a.asname or a.name] = a.name
    return aliases


def _uses(module, node, aliases) -> Counter:
    """``module:name`` for each top-level name and ``.attr`` for each attribute
    used under ``node``, a part of ``module``'s source."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[f"{module}:{n.id}"] += 1
        elif isinstance(n, ast.Attribute):
            owner = n.value.id if isinstance(n.value, ast.Name) else None
            uses[f"{aliases[owner]}:{n.attr}" if owner in aliases else f".{n.attr}"] += 1
        elif isinstance(n, ast.ImportFrom) and module != "__init__" and n.module:
            uses.update(f"{n.module}:{a.name}" for a in n.names)
    return uses


def unreferenced_public_names(src_dir=SRC) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(src_dir).glob("*.py"))}
    aliases = {module: _module_aliases(tree, set(trees)) for module, tree in trees.items()}
    everywhere = Counter()
    for module, tree in trees.items():
        everywhere += _uses(module, tree, aliases[module])
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defs = [(node.name, f"{module}:{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", f".{m.name}", m) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for name, key, d in defs:
                if everywhere[key] == _uses(module, d, aliases[module])[key]:
                    unused.append(f"{module}:{name}")
    return unused


def test_no_public_name_is_unused_by_src():
    assert unreferenced_public_names() == []
