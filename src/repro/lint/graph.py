"""Whole-program project model for simlint: modules, imports, symbols.

The v1 linter analysed one file at a time, so any nondeterminism that
crossed a module boundary — an RNG minted in one layer and injected into
another, an unordered collection handed to a scheduler two files away —
was invisible.  This module parses the whole project *once* and exposes:

* a :class:`Project`: every module under the linted paths, keyed by path,
  with dotted module names resolved from package structure;
* an **import graph**: per-module edges to the project modules it
  imports, plus the local binding table (``import x as y`` /
  ``from a import b``) so rules can resolve what a name in one file
  refers to in another;
* **symbol tables**: per-module functions and classes with their
  parameter lists, so call sites can be checked against the callee's
  actual signature even when the callee lives in a different package.

Everything here is still pure AST analysis — the linted code is never
imported or executed, so linting stays safe on broken or hostile trees.
"""

from __future__ import annotations

import ast
import concurrent.futures
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from repro.lint.diagnostics import Diagnostic, parse_suppressions

#: Directories never descended into during discovery.  ``fixtures`` holds
#: deliberately-violating lint-test inputs and must not gate the repo.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".pytest_cache", ".mypy_cache", ".ruff_cache",
     ".venv", "venv", "build", "dist", "fixtures"}
)


# -- symbol tables -------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSymbol:
    """One function (or method) definition's callable surface."""

    name: str
    #: Positional-or-keyword parameter names, in order (``self``/``cls``
    #: excluded for methods).
    params: tuple[str, ...]
    #: Names of keyword-only parameters.
    kwonly: tuple[str, ...]
    lineno: int
    is_method: bool = False

    def param_for_arg(self, position: int, keyword: Optional[str]) -> Optional[str]:
        """The parameter name an argument binds to, or ``None`` if unknown."""
        if keyword is not None:
            if keyword in self.params or keyword in self.kwonly:
                return keyword
            return None
        if 0 <= position < len(self.params):
            return self.params[position]
        return None


@dataclass(frozen=True)
class ClassSymbol:
    """One class definition: its bases and its ``__init__`` signature."""

    name: str
    bases: tuple[str, ...]
    #: ``__init__`` minus ``self``; ``None`` when the class defines none.
    init: Optional[FunctionSymbol]
    #: All method symbols, keyed by name.
    methods: dict[str, FunctionSymbol]
    lineno: int


def _function_symbol(
    node: ast.FunctionDef | ast.AsyncFunctionDef, is_method: bool
) -> FunctionSymbol:
    args = node.args
    params = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if is_method and params and params[0] in ("self", "cls"):
        params = params[1:]
    return FunctionSymbol(
        name=node.name,
        params=tuple(params),
        kwonly=tuple(a.arg for a in args.kwonlyargs),
        lineno=node.lineno,
        is_method=is_method,
    )


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


# -- modules -------------------------------------------------------------------


@dataclass
class ModuleInfo:
    """One parsed module plus everything rules ask about it."""

    path: str            #: display path (as given, posix separators)
    name: str            #: dotted module name (``repro.mac.dcf``)
    source: str
    tree: ast.Module
    #: local name -> dotted target: ``import repro.mac as m`` binds
    #: ``m -> repro.mac``; ``from repro.mac.dcf import Dcf80211Mac`` binds
    #: ``Dcf80211Mac -> repro.mac.dcf.Dcf80211Mac``.
    bindings: dict[str, str] = field(default_factory=dict)
    #: Dotted module names this module imports (project + external).
    imports: set[str] = field(default_factory=set)
    functions: dict[str, FunctionSymbol] = field(default_factory=dict)
    classes: dict[str, ClassSymbol] = field(default_factory=dict)
    #: line -> suppressed codes, from ``# simlint: disable=...`` comments.
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def top_package(self) -> str:
        """First dotted component (``repro`` for ``repro.mac.dcf``)."""
        return self.name.split(".", 1)[0]

    @property
    def layer(self) -> Optional[str]:
        """Second dotted component (``mac`` for ``repro.mac.dcf``)."""
        parts = self.name.split(".")
        return parts[1] if len(parts) >= 3 else None


def module_name_for(path: Path) -> str:
    """Dotted module name from package structure (``__init__.py`` chain).

    Walks up while the parent directory is a package; files outside any
    package (e.g. ``examples/quickstart.py``) get their bare stem.  A
    package's ``__init__.py`` names the package itself and ``__main__.py``
    keeps its ``__main__`` component (``repro.lint.__main__``).
    """
    parts: list[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted name for a relative ``from``-import, if derivable."""
    base = module.name.split(".")
    # ``from . import x`` in repro/mac/dcf.py: level 1 strips the leaf.
    if len(base) < node.level:
        return None
    prefix = base[: len(base) - node.level]
    if node.module:
        prefix = prefix + node.module.split(".")
    return ".".join(prefix) if prefix else None


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports.add(alias.name)
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                module.bindings[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                target_mod = _resolve_relative(module, node)
            else:
                target_mod = node.module
            if target_mod is None:
                continue
            module.imports.add(target_mod)
            for alias in node.names:
                if alias.name == "*":
                    continue
                module.bindings[alias.asname or alias.name] = (
                    f"{target_mod}.{alias.name}"
                )


def _collect_symbols(module: ModuleInfo) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = _function_symbol(node, is_method=False)
        elif isinstance(node, ast.ClassDef):
            methods: dict[str, FunctionSymbol] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = _function_symbol(item, is_method=True)
            bases = tuple(
                b for b in (_base_name(e) for e in node.bases) if b is not None
            )
            module.classes[node.name] = ClassSymbol(
                name=node.name,
                bases=bases,
                init=methods.get("__init__"),
                methods=methods,
                lineno=node.lineno,
            )


# -- the project ---------------------------------------------------------------


@dataclass
class Project:
    """Every parsed module, plus name-based lookup and call resolution."""

    #: display path -> module, in sorted-path order.
    modules: dict[str, ModuleInfo]
    #: Diagnostics produced while loading (unreadable files, syntax errors).
    load_diagnostics: list[Diagnostic]
    #: dotted name -> module (first loaded wins on collisions).
    by_name: dict[str, ModuleInfo] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for module in self.modules.values():
            self.by_name.setdefault(module.name, module)

    def modules_in_order(self) -> Iterator[ModuleInfo]:
        for path in sorted(self.modules):
            yield self.modules[path]

    # -- import graph ----------------------------------------------------------

    def project_imports(self, module: ModuleInfo) -> set[str]:
        """The subset of ``module.imports`` that resolve inside the project.

        ``from repro.mac import dcf`` records ``repro.mac``; the submodule
        edge is added too when ``repro.mac.dcf`` is a project module.
        """
        resolved: set[str] = set()
        for name in module.imports:
            if name in self.by_name:
                resolved.add(name)
        for target in module.bindings.values():
            head = target
            while head:
                if head in self.by_name:
                    resolved.add(head)
                    break
                head = head.rpartition(".")[0]
        resolved.discard(module.name)
        return resolved

    def import_graph(self) -> dict[str, set[str]]:
        """Module name -> names of project modules it imports."""
        return {
            m.name: {self.by_name[n].name for n in self.project_imports(m)}
            for m in self.modules_in_order()
        }

    # -- cross-module symbol resolution ----------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> Optional[tuple[ModuleInfo, str]]:
        """Resolve ``dotted`` (a local binding target) to (module, symbol).

        ``repro.mac.dcf.Dcf80211Mac`` -> the dcf module and ``"Dcf80211Mac"``;
        a bare project-module name resolves to (module, ``""``).  Re-exports
        through package ``__init__`` files are followed one hop.
        """
        if dotted in self.by_name:
            return self.by_name[dotted], ""
        head, _, leaf = dotted.rpartition(".")
        if not head:
            return None
        owner = self.by_name.get(head)
        if owner is None:
            return None
        if leaf in owner.functions or leaf in owner.classes:
            return owner, leaf
        # Package __init__ re-export: follow the binding one hop.
        target = owner.bindings.get(leaf)
        if target is not None and target != dotted:
            return self.resolve(module, target)
        # ``from repro.mac import dcf`` style submodule reference.
        sub = self.by_name.get(dotted)
        if sub is not None:
            return sub, ""
        return None

    def resolve_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[tuple[ModuleInfo, str]]:
        """Resolve a local name in ``module`` to its defining (module, symbol)."""
        if name in module.functions or name in module.classes:
            return module, name
        target = module.bindings.get(name)
        if target is None:
            return None
        return self.resolve(module, target)

    def callee_signature(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[tuple[ModuleInfo, FunctionSymbol, Optional[ClassSymbol]]]:
        """Signature of the function/constructor a call resolves to.

        Handles ``f(...)``, ``Klass(...)`` (returns ``__init__``),
        ``imported_module.f(...)`` and ``self.method(...)`` (the latter
        only when exactly one class in the same module defines the
        method).  Returns ``None`` when the callee cannot be resolved
        statically; rules must treat that as "no finding".
        """
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(module, func.id)
            if resolved is None:
                return None
            owner, symbol = resolved
            if symbol in owner.functions:
                return owner, owner.functions[symbol], None
            if symbol in owner.classes:
                cls = owner.classes[symbol]
                init = self._init_with_inheritance(owner, cls)
                if init is not None:
                    return owner, init, cls
            return None
        if isinstance(func, ast.Attribute):
            # ``mod.f(...)`` / ``mod.Klass(...)``
            if isinstance(func.value, ast.Name):
                base = module.bindings.get(func.value.id)
                if base is not None:
                    resolved = self.resolve(module, f"{base}.{func.attr}")
                    if resolved is not None:
                        owner, symbol = resolved
                        if symbol in owner.functions:
                            return owner, owner.functions[symbol], None
                        if symbol in owner.classes:
                            cls = owner.classes[symbol]
                            init = self._init_with_inheritance(owner, cls)
                            if init is not None:
                                return owner, init, cls
                # ``self.method(...)``: look in this module's classes.
                if func.value.id == "self":
                    candidates = [
                        (cls, cls.methods[func.attr])
                        for cls in module.classes.values()
                        if func.attr in cls.methods
                    ]
                    if len(candidates) == 1:
                        cls, sym = candidates[0]
                        return module, sym, cls
        return None

    def _init_with_inheritance(
        self, owner: ModuleInfo, cls: ClassSymbol, depth: int = 0
    ) -> Optional[FunctionSymbol]:
        """``__init__`` of ``cls``, following named bases up to 5 hops."""
        if cls.init is not None:
            return cls.init
        if depth >= 5:
            return None
        for base in cls.bases:
            resolved = self.resolve_name(owner, base)
            if resolved is None:
                continue
            base_mod, symbol = resolved
            base_cls = base_mod.classes.get(symbol)
            if base_cls is None:
                continue
            init = self._init_with_inheritance(base_mod, base_cls, depth + 1)
            if init is not None:
                return init
        return None

    def rng_factories(self) -> set[str]:
        """Local names across the project that refer to seeding factories.

        Not module-scoped — callers should use :meth:`is_seeding_factory`
        for per-module resolution; this is a convenience for reporting.
        """
        names: set[str] = set()
        for module in self.modules.values():
            for local, target in module.bindings.items():
                if target.startswith(SEEDING_MODULE):
                    names.add(local)
        return names


#: The one blessed source of derived RNG streams (see docs/STATIC_ANALYSIS.md).
SEEDING_MODULE = "repro.core.seeding"

#: Factory functions in :data:`SEEDING_MODULE` that mint streams.
SEEDING_FACTORIES = frozenset({"derive_rng", "derive_seed", "mac_rng", "error_rng"})


# -- loading -------------------------------------------------------------------


def discover_files(paths: Iterable[str]) -> tuple[list[Path], list[Diagnostic]]:
    """Every ``.py`` file under ``paths``; unreadable dirs become diagnostics.

    Discovery never raises: a directory that cannot be listed yields a
    SIM000 diagnostic and is skipped, so one bad mount or permission hole
    cannot take down the whole lint run.
    """
    files: list[Path] = []
    diagnostics: list[Diagnostic] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
            continue
        if not path.is_dir():
            continue
        try:
            candidates = sorted(path.rglob("*.py"))
        except OSError as exc:
            diagnostics.append(
                Diagnostic(path.as_posix(), 1, 1, "SIM000",
                           f"cannot list directory: {exc}")
            )
            continue
        for candidate in candidates:
            # Skip-dirs apply only *below* each given root, so explicitly
            # pointing simlint at a fixture tree still lints it.
            relative = candidate.relative_to(path)
            if not any(part in SKIP_DIRS for part in relative.parts):
                files.append(candidate)
    return files, diagnostics


def _load_one(path: Path) -> tuple[Path, Optional[str], Optional[Diagnostic]]:
    """Read one file; non-UTF-8 / unreadable files become a diagnostic."""
    display = path.as_posix()
    try:
        return path, path.read_text(encoding="utf-8"), None
    except UnicodeDecodeError as exc:
        return path, None, Diagnostic(
            display, 1, 1, "SIM000",
            f"skipped: not valid UTF-8 ({exc.reason} at byte {exc.start})",
        )
    except OSError as exc:
        return path, None, Diagnostic(
            display, 1, 1, "SIM000", f"cannot read file: {exc}"
        )


def load_project(paths: Iterable[str], jobs: int = 1) -> Project:
    """Parse every Python file under ``paths`` into a :class:`Project`.

    ``jobs > 1`` reads and parses files on a thread pool; results are
    re-sorted by path afterwards so output order never depends on
    scheduling.  Files that cannot be read or parsed are recorded as
    SIM000 diagnostics in :attr:`Project.load_diagnostics` — a corrupt
    file must gate CI, not crash the linter.
    """
    files, diagnostics = discover_files(paths)
    if jobs > 1 and len(files) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            loaded = list(pool.map(_load_one, files))
    else:
        loaded = [_load_one(f) for f in files]

    modules: dict[str, ModuleInfo] = {}
    for path, source, diag in loaded:
        display = path.as_posix()
        if diag is not None:
            diagnostics.append(diag)
        if source is None:
            continue
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            diagnostics.append(
                Diagnostic(display, exc.lineno or 1, (exc.offset or 0) + 1,
                           "SIM000", f"syntax error: {exc.msg}")
            )
            continue
        except ValueError as exc:  # e.g. source with null bytes
            diagnostics.append(
                Diagnostic(display, 1, 1, "SIM000", f"cannot parse: {exc}")
            )
            continue
        module = ModuleInfo(
            path=display,
            name=module_name_for(path),
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )
        _collect_imports(module)
        _collect_symbols(module)
        modules[display] = module
    ordered = {p: modules[p] for p in sorted(modules)}
    return Project(modules=ordered, load_diagnostics=sorted(diagnostics))
