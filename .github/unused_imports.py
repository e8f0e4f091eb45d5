"""Fail on a name a module imports but never uses, unless the import's line carries "# noqa: F401".

A name counts as used when the module reads it anywhere or lists it in __all__.
Usage: python .github/unused_imports.py src/lightwake/*.py
"""
import ast
import sys

unused = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    tree = ast.parse(source)
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
print("\n".join(unused) or f"no unused import in {len(sys.argv) - 1} modules")
sys.exit(1 if unused else 0)
