"""Fail on a name a module imports but never uses, unless the import's line carries "# noqa: F401",
and on a module-level private name that none of the given modules reads.

An imported name counts as used when the module reads it anywhere or lists it in __all__. A
private name, one with a leading underscore that is not a dunder or the bare _ throwaway,
defined by a module-level def, class or assignment, counts as read when any given module reads
it as a name or an attribute, or imports it with from ... import.
Usage: python .github/unused_imports.py src/lightwake/*.py
"""
import ast
import sys

unused = []
trees = {}
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = trees[path] = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    lines = source.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path}:{alias.lineno}: '{name}' imported but unused")
read = set()
for node in (node for tree in trees.values() for node in ast.walk(tree)):
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        read.add(node.id if isinstance(node, ast.Name) else node.attr)
    elif isinstance(node, ast.ImportFrom):
        read.update(alias.name for alias in node.names)
for path, tree in trees.items():
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        names = [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for name in names:
            if name.startswith("_") and name != "_" and not (name.startswith("__") and name.endswith("__")) \
                    and name not in read:
                unused.append(f"{path}:{node.lineno}: private '{name}' is never read")
print("\n".join(unused) or f"no unused import or private name in {len(sys.argv) - 1} modules")
sys.exit(1 if unused else 0)
