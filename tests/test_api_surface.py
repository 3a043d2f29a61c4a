"""Every public top-level function, class and method in src is used by src itself,
and so is every defaulted parameter of each public function and method.

An API that only tests call is a second code path the program never runs;
tests should exercise the path the program takes instead.  A default that no
src call overrides is such a path too: a setting only a test can change.

A use of a top-level name counts only when it resolves to the module that
defines it: ``from .module import name``, ``alias.name`` where ``alias`` is
bound to that module, or a bare ``name`` inside the module itself.  The
re-exports in ``__init__.py`` do not count.  A public method counts as used
when its name is read as an attribute of anything but a module alias.
References inside a definition's own body never count.

A call resolves the same way, and it passes a defaulted parameter when it
names it as a keyword, gives it a positional argument, or spreads ``*`` or
``**`` arguments that may hold it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "textvae"

# the entry point: its caller is the console script, outside src
PARAMETER_EXEMPT = {"cli:main(argv)"}


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


def _parse(src_dir) -> tuple[dict, dict]:
    """(module -> syntax tree, module -> its ``_module_aliases``) of every src file."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(src_dir).glob("*.py"))}
    return trees, {module: _module_aliases(tree, set(trees)) for module, tree in trees.items()}


def _attribute_key(node: ast.Attribute, aliases) -> str:
    """``module:attr`` when ``node`` reads a module alias's attribute, else ``.attr``."""
    owner = node.value.id if isinstance(node.value, ast.Name) else None
    return f"{aliases[owner]}:{node.attr}" if owner in aliases else f".{node.attr}"


def _public_definitions(trees):
    """(module, name, use key, definition) of every public top-level function and class
    and every public method of a public class."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield module, node.name, f"{module}:{node.name}", node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield module, f"{node.name}.{m.name}", f".{m.name}", m


def _uses(module, node, aliases) -> Counter:
    """``module:name`` for each top-level name and ``.attr`` for each attribute
    used under ``node``, a part of ``module``'s source."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses[f"{module}:{n.id}"] += 1
        elif isinstance(n, ast.Attribute):
            uses[_attribute_key(n, aliases)] += 1
        elif isinstance(n, ast.ImportFrom) and module != "__init__" and n.module:
            uses.update(f"{n.module}:{a.name}" for a in n.names)
    return uses


def unreferenced_public_names(src_dir=SRC) -> list[str]:
    trees, aliases = _parse(src_dir)
    everywhere = Counter()
    for module, tree in trees.items():
        everywhere += _uses(module, tree, aliases[module])
    return [f"{module}:{name}" for module, name, key, d in _public_definitions(trees)
            if everywhere[key] == _uses(module, d, aliases[module])[key]]


def test_no_public_name_is_unused_by_src():
    assert unreferenced_public_names() == []


def _defaulted(d: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, index among a call's positional arguments, or None when keyword-only) of
    each parameter of ``d`` that has a default; a method's self or cls is not passed."""
    a = d.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(x, ast.Name) and x.id == "staticmethod" for x in d.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(a.defaults)
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, default in zip(a.kwonlyargs, a.kw_defaults)
            if default is not None]
    return out


def unpassed_defaulted_parameters(src_dir=SRC) -> list[str]:
    trees, aliases = _parse(src_dir)
    passed = {}  # use key -> (most positional arguments, keywords) over src's calls
    for module, tree in trees.items():
        imported = {a.asname or a.name: f"{n.module}:{a.name}" for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module for a in n.names}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if isinstance(call.func, ast.Name):
                key = imported.get(call.func.id, f"{module}:{call.func.id}")
            elif isinstance(call.func, ast.Attribute):
                key = _attribute_key(call.func, aliases[module])
            else:
                continue
            starred = any(isinstance(x, ast.Starred) for x in call.args)
            most, keywords = passed.get(key, (0, set()))
            passed[key] = (float("inf") if starred else max(most, len(call.args)),
                           keywords | {k.arg for k in call.keywords})  # None: a ** argument
    unpassed = []
    for module, name, key, d in _public_definitions(trees):
        if isinstance(d, ast.ClassDef):
            continue
        most, keywords = passed.get(key, (0, set()))
        for arg, position in _defaulted(d, method="." in name):
            label = f"{module}:{name}({arg})"
            by_position = position is not None and position < most
            if not (by_position or arg in keywords or None in keywords
                    or label in PARAMETER_EXEMPT):
                unpassed.append(label)
    return unpassed


def test_every_defaulted_parameter_is_passed_by_src():
    assert unpassed_defaulted_parameters() == []
