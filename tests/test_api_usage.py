"""Every name a module exports is used by the program itself.

The ROADMAP's rule "delete any API that no experiment uses", as a check:
each name in a ``src/depthlab/*.py`` module's ``__all__`` must appear as a
name, an attribute, an import alias or a string constant somewhere in
``src/``, ``scripts/`` or ``perfbench/`` (perfbench wraps some functions
by their name as a string), outside its own definition and the
``__all__`` list.  So must each public method and property of an
exported class, outside its own definition and every ``__all__`` list.
Uses in tests do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# exported although the program does not use them, each for a reason
ALLOWED = {
    # the one-parity reference that parity_family's rows are tested against
    "boolfn.parity_fn",
    # the packing-bound check of acceptance criterion C8
    "sq.correlation_count_check",
}


def _defines(stmt, name) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _tokens(node) -> set:
    """Every name, attribute, import alias and string constant under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _public_members(cls) -> list:
    """The public methods and properties a class statement defines."""
    return [stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")]


def unused_exports(root: Path) -> set:
    """``module.name`` for each exported name, and ``module.Class.member``
    for each public member of an exported class, that nothing outside its
    definition uses."""
    files = [*(root / "src").rglob("*.py"), *(root / "scripts").glob("*.py"),
             *(root / "perfbench").glob("*.py")]
    # (file, top-level statement, its tokens) for every statement
    stmts = [(path, stmt, _tokens(stmt)) for path in files
             for stmt in ast.parse(path.read_text()).body]
    unused = set()
    for path, export, _ in stmts:
        if path.parent != root / "src" / "depthlab" or not _defines(export, "__all__"):
            continue
        for name in ast.literal_eval(export.value):
            if not any(name in tokens for other, stmt, tokens in stmts
                       if other != path or not (stmt is export or _defines(stmt, name))):
                unused.add(f"{path.stem}.{name}")
            cls = next((stmt for other, stmt, _ in stmts
                        if other == path and _defines(stmt, name)), None)
            for member in _public_members(cls) if isinstance(cls, ast.ClassDef) else []:
                # the class body minus the member, then every other statement
                rest = [_tokens(s) for s in cls.body if s is not member]
                rest += [tokens for _, stmt, tokens in stmts
                         if stmt is not cls and not _defines(stmt, "__all__")]
                if not any(member.name in tokens for tokens in rest):
                    unused.add(f"{path.stem}.{name}.{member.name}")
    return unused


def test_every_export_is_used_or_allowed():
    assert unused_exports(ROOT) == ALLOWED
