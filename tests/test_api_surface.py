"""Every public top-level function or class in src is used by src itself.

An API that only tests call is a second code path the program never runs;
tests should exercise the path the program takes instead.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "textvae"


def _referenced_names(node) -> Counter:
    """Names, attribute names and imported names occurring under ``node``."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def unreferenced_public_names(src_dir=SRC) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(src_dir).glob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere += _referenced_names(tree)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = everywhere[node.name] - _referenced_names(node)[node.name]
            if outside == 0:
                unused.append(f"{module}:{node.name}")
    return unused


def test_no_public_name_is_unused_by_src():
    assert unreferenced_public_names() == []
