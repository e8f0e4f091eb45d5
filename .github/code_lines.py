"""Count each module's physical lines, as wc -l counts them, and its code lines outside
comments and docstrings; then both totals.

Usage: python .github/code_lines.py src/lightwake/*.py
"""
import ast
import sys
import tokenize

skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}
total_lines = total_code = 0
print(f"{'lines':>6} {'code':>6}")
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        source = f.read()
    docs = set()  # the lines of module, class and function docstrings
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
    lines = {n for tok in tokens if tok.type not in skip for n in range(tok.start[0], tok.end[0] + 1)}
    physical, code = source.count("\n"), len(lines - docs)
    print(f"{physical:6d} {code:6d} {path}")
    total_lines += physical
    total_code += code
print(f"{total_lines:6d} {total_code:6d} total")
