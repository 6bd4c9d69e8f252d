"""Which `src/` modules, top-level defs and methods no entry point reaches.

An entry point is the CLI (``python -m repro``, every verb of
`repro.cli`), a bench (``benchmarks/*.py``), the e2e workloads
(``benchmarks/e2e/*.py``) or an example (``examples/*.py``).  Starting
from those files the audit follows imports and name references,
transitively, over the `ast` of every module under ``src/repro``:

* importing a module runs its package ``__init__`` files and its
  module-level code, so every name that code references is reached;
* a reached function reaches every name its decorators, defaults and
  body reference; a reached class reaches what its decorators, bases
  and non-method statements reference;
* a method of a reached class is reached once its name is referenced
  anywhere reached: as an attribute (``x.name``), as the constant name
  of a ``getattr`` / ``hasattr`` / ``setattr``, as a bare name in a
  class body, or as a part of a dotted entry string; dunder methods are
  reached with their class (the interpreter calls them);
* a name resolves through its module's top-level defs and import
  aliases (re-exports included), and ``module.attr`` chains resolve
  through imported modules;
* a string ``"repro.pkg.mod.Name.attr"`` in an entry file references
  ``Name`` (the e2e layer table binds its seams that way).

It is name-based and conservative: a local variable that shares a
top-level def's name keeps the def alive, any ``x.name`` keeps every
reached class's ``name`` method alive, dynamic lookups are not followed,
and code behind an argument no entry point passes (an optional subsystem
wired through a keyword) still counts as reached.  What it lists is what
no entry point can run; tests do not count as entry points.

`REFERENCE` names the few unreached defs that stay on purpose, each with
its reason.  Anything else unreached — or a `REFERENCE` entry that is
reached after all, or no longer exists — makes the audit exit 1.

    python3 scripts/entry_audit.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from collections import deque

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRIES = ["src/repro/__main__.py", "benchmarks/*.py", "benchmarks/e2e/*.py", "examples/*.py"]
DOTTED = re.compile(r"^repro(\.\w+)+$")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
ATTR_CALLS = {"getattr", "hasattr", "setattr"}

# Unreached on purpose: references that tests hold the system against.
REFERENCE = {
    "src/repro/analysis/models.py::cuckoo_amplification":
        "the closed-form candidate count the cuckoo tests check the table against",
    "src/repro/storage/compression.py::decompress":
        "the codec's inverse: round-trip tests check `compress` output with it",
    "src/repro/storage/compression.py::_read_varint": "part of `decompress`",
    "src/repro/storage/compression.py::SnappyError": "what `decompress` raises",
    "src/repro/storage/blockio.py::IOCounters.delta":
        "the I/O of one read, as the read-traffic tests and the per-key reference reader measure it",
}


class Module:
    """One parsed file: its top-level defs, the names its imports bind
    (anywhere in the file), and its other module-level statements."""

    def __init__(self, name: str, path: pathlib.Path):
        self.name, self.path = name, path
        self.package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        self.tree = ast.parse(path.read_text(), str(path))
        self.defs = {n.name: n for n in self.tree.body if isinstance(n, DEFS)}
        self.methods = {
            (c.name, n.name): n
            for c in self.defs.values() if isinstance(c, ast.ClassDef)
            for n in c.body if isinstance(n, FUNCS)
        }
        self.body = [n for n in self.tree.body if not isinstance(n, DEFS)]
        self.aliases: dict[str, tuple[str, str | None]] = {}  # local -> (module, attr)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        self.aliases[a.asname] = (a.name, None)
                    else:
                        head = a.name.partition(".")[0]
                        self.aliases[head] = (head, None)
            elif isinstance(node, ast.ImportFrom):
                source = self.source(node)
                for a in node.names:
                    self.aliases[a.asname or a.name] = (source, a.name)

    def source(self, node: ast.ImportFrom) -> str:
        """The absolute module an ``import from`` reads."""
        if not node.level:
            return node.module or ""
        base = self.package.split(".")[: len(self.package.split(".")) - node.level + 1]
        return ".".join(base + ([node.module] if node.module else []))


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


class Audit:
    def __init__(self):
        self.modules: dict[str, Module] = {}
        for path in sorted((SRC / "repro").rglob("*.py")):
            parts = path.relative_to(SRC).with_suffix("").parts
            name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            self.modules[name] = Module(name, path)
        self.reached_modules: set[str] = set()
        self.reached_defs: set[tuple[str, str]] = set()
        self.reached_methods: set[tuple[str, str, str]] = set()
        self.attrs: set[str] = set()  # every method name referenced so far
        self.pending: dict[str, list] = {}  # method name -> [(module, class)]
        self.work: deque = deque()

    # -- marking ------------------------------------------------------------

    def reach_module(self, name: str) -> None:
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules and prefix not in self.reached_modules:
                self.reached_modules.add(prefix)
                module = self.modules[prefix]
                self.work.extend((module, stmt) for stmt in module.body)

    def reach_attr(self, module: str, attr: str, seen: frozenset = frozenset()) -> None:
        """``attr`` looked up on ``module``: a submodule, a def, or a
        re-exported name."""
        if module not in self.modules or (module, attr) in seen:
            return
        self.reach_module(module)
        if f"{module}.{attr}" in self.modules:
            self.reach_module(f"{module}.{attr}")
            return
        m = self.modules[module]
        if attr in m.defs:
            if (module, attr) not in self.reached_defs:
                self.reached_defs.add((module, attr))
                self.reach_def(m, m.defs[attr])
        elif attr in m.aliases:
            source, name = m.aliases[attr]
            if name is None:
                self.reach_module(source)
            else:
                self.reach_attr(source, name, seen | {(module, attr)})

    def reach_def(self, m: Module, node: ast.AST) -> None:
        """Queue a reached def: a function whole, a class without its
        methods, each of which waits for its name to be referenced."""
        if not isinstance(node, ast.ClassDef):
            self.work.append((m, node))
            return
        self.work.extend((m, n) for n in [*node.decorator_list, *node.bases, *node.keywords])
        for stmt in node.body:
            if not isinstance(stmt, FUNCS):
                self.work.append((m, stmt))
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Name):
                        self.reach_name(sub.id)
            elif stmt.name in self.attrs or (stmt.name.startswith("__") and stmt.name.endswith("__")):
                self.reach_method(m, node.name, stmt.name)
            else:
                self.pending.setdefault(stmt.name, []).append((m, node.name))

    def reach_method(self, m: Module, cls: str, name: str) -> None:
        if (m.name, cls, name) not in self.reached_methods:
            self.reached_methods.add((m.name, cls, name))
            self.work.append((m, m.methods[cls, name]))

    def reach_name(self, name: str) -> None:
        """``name`` referenced as a method name: every reached class's
        method of that name is reached."""
        if name not in self.attrs:
            self.attrs.add(name)
            for m, cls in self.pending.pop(name, ()):
                self.reach_method(m, cls, name)

    def reach_chain(self, scope: Module, chain: str) -> None:
        """A name, or an attribute chain, referenced in ``scope``."""
        head, *rest = chain.split(".")
        if head in scope.defs or head not in scope.aliases:
            self.reach_attr(scope.name, head)
            return
        source, name = scope.aliases[head]
        if name is not None:
            self.reach_attr(source, name)
            if f"{source}.{name}" not in self.modules:
                return
            source = f"{source}.{name}"
        self.reach_module(source)
        for attr in rest:
            if f"{source}.{attr}" not in self.modules:
                self.reach_attr(source, attr)
                return
            source = f"{source}.{attr}"
            self.reach_module(source)

    def visit(self, scope: Module, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Import):
                for a in sub.names:
                    self.reach_module(a.name)
            elif isinstance(sub, ast.ImportFrom):
                source = scope.source(sub)
                self.reach_module(source)
                for a in sub.names:
                    self.reach_module(f"{source}.{a.name}")
            elif isinstance(sub, (ast.Name, ast.Attribute)):
                if isinstance(sub, ast.Attribute):
                    self.reach_name(sub.attr)
                chain = dotted(sub)
                if chain is not None:
                    self.reach_chain(scope, chain)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id in ATTR_CALLS and len(sub.args) >= 2
                  and isinstance(sub.args[1], ast.Constant)
                  and isinstance(sub.args[1].value, str)):
                self.reach_name(sub.args[1].value)

    def run(self) -> list[pathlib.Path]:
        entries = sorted({p for pattern in ENTRIES for p in ROOT.glob(pattern)})
        for path in entries:
            name = "repro.__main__" if path.is_relative_to(SRC) else f"<{path.relative_to(ROOT)}>"
            scope = self.modules.get(name) or Module(name, path)
            self.reach_module(name)
            self.visit(scope, scope.tree)
            for node in ast.walk(scope.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if DOTTED.match(node.value):
                        self.reach_string(node.value)
        while self.work:
            self.visit(*self.work.popleft())
        return entries

    def reach_string(self, text: str) -> None:
        parts = text.split(".")
        for part in parts:
            self.reach_name(part)
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                self.reach_attr(module, parts[i])
                return


def lines(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def unreached(audit: Audit) -> list[tuple[str, str, int]]:
    """``(what, "path::name", lines)`` for every module, def and method no
    entry point reaches, outermost first (a def inside an unreached module
    or a method of an unreached class is not listed again)."""
    out = []
    for name, m in sorted(audit.modules.items()):
        rel = m.path.relative_to(ROOT)
        n = len(m.path.read_text().splitlines())
        live = [d for d in m.defs if (name, d) in audit.reached_defs]
        if name not in audit.reached_modules:
            out.append(("module never imported", str(rel), n))
        elif m.defs and not live:
            out.append(("module imported, no def used", str(rel), n))
        else:
            for d, node in m.defs.items():
                if (name, d) not in audit.reached_defs:
                    out.append(("def unreached", f"{rel}::{d}", lines(node)))
            for (cls, meth), node in m.methods.items():
                if (name, cls) in audit.reached_defs and (name, cls, meth) not in audit.reached_methods:
                    out.append(("method unreached", f"{rel}::{cls}.{meth}", lines(node)))
    return out


def main() -> int:
    audit = Audit()
    entries = audit.run()
    print(f"entry points: {len(entries)} files; src modules: {len(audit.modules)}, "
          f"{len(audit.reached_modules)} imported by an entry point")
    found = unreached(audit)
    total = 0
    for what, where, n in found:
        if where in REFERENCE:
            print(f"  reference ({REFERENCE[where]}): {where} ({n} lines)")
        else:
            print(f"  {what}: {where} ({n} lines)")
            total += n
    stale = sorted(set(REFERENCE) - {where for _, where, _ in found})
    for where in stale:
        print(f"  REFERENCE entry reached or gone: {where}")
    print(f"unreached total: {total} lines")
    return 1 if total or stale else 0


if __name__ == "__main__":
    sys.exit(main())
