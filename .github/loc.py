"""Lines of code in src/mcpca/*.py, at a git revision or in the work tree.

A line of code is one that is not blank, not a comment alone and not
inside a docstring.

usage: python .github/loc.py [REV]
"""
import ast
import glob
import io
import subprocess
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def lines_of_code(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(code)


def sources(rev):
    if rev is None:
        return [open(name, encoding="utf-8").read() for name in glob.glob("src/mcpca/*.py")]
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, "src/mcpca/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return [
        subprocess.run(["git", "show", f"{rev}:{name}"], capture_output=True, text=True,
                       check=True).stdout
        for name in names if name.endswith(".py")
    ]


if __name__ == "__main__":
    print(sum(map(lines_of_code, sources(sys.argv[1] if len(sys.argv) > 1 else None))))
