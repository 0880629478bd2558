"""Rule registry, file model and driver for repro-lint.

The engine is deliberately small: it parses each file once, records a
parent map and the inline suppressions, runs every registered per-file
rule, then gives cross-module rules one ``finalize`` pass over the
whole file set (that is how reference-oracle test coverage is checked).

Rules are registered by class via :func:`register`; a fresh instance is
created per run so cross-module rules can accumulate state without
leaking between invocations.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Subpackages of ``repro`` holding the paper's algorithms: the
#: determinism rules (RPL0xx) apply only here.  ``util.rng`` is the
#: sanctioned entropy boundary and ``exp`` derives trial seeds through
#: ``SeedSequence`` by construction; both live outside this set.
#: ``mpc`` (partitions, round drivers, metering) and ``transport``
#: (shared-memory plumbing) are clock- and RNG-free by contract — their
#: rank-determinism suite depends on it — so they are in scope too.
#: ``artifacts`` (content-addressed store: keys must be canonical,
#: replay must be bit-stable) and ``serve`` (clock-free query path over
#: those artifacts) join the scope with the serving layer.
DETERMINISM_PACKAGES = frozenset(
    {
        "artifacts",
        "core",
        "decomp",
        "graphs",
        "ilp",
        "local",
        "mpc",
        "serve",
        "transport",
    }
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: sortable as (path, line, col, code)."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


class FileContext:
    """One parsed source file plus the metadata rules need.

    ``display_path`` is what violations report (repo-relative for real
    files); scoping decisions (library vs tests vs determinism
    packages) look at its parts, so fixture tests can lint in-memory
    snippets under any virtual path.
    """

    def __init__(self, display_path: str, source: str) -> None:
        self.path = display_path
        self.source = source
        self.tree = ast.parse(source)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self.suppressions = _parse_suppressions(source)

    # -- path scoping --------------------------------------------------
    @property
    def parts(self) -> Tuple[str, ...]:
        return Path(self.path).parts

    @property
    def package(self) -> Optional[str]:
        """Subpackage of ``repro`` this file lives in (None outside)."""
        parts = self.parts
        for i, part in enumerate(parts):
            if part == "repro" and i + 1 < len(parts):
                rest = parts[i + 1 :]
                return rest[0] if len(rest) > 1 else ""
        return None

    @property
    def is_library(self) -> bool:
        """Inside the ``repro`` package, excluding ``devtools`` itself."""
        return self.package is not None and self.package != "devtools"

    @property
    def is_test(self) -> bool:
        return "tests" in self.parts

    @property
    def in_determinism_scope(self) -> bool:
        return self.package in DETERMINISM_PACKAGES

    # -- AST helpers ---------------------------------------------------
    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parents is None:
            self._parents = {
                child: parent
                for parent in ast.walk(self.tree)
                for child in ast.iter_child_nodes(parent)
            }
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        seen = self.parents.get(node)
        while seen is not None:
            yield seen
            seen = self.parents.get(seen)

    def suppressed(self, violation: Violation) -> bool:
        codes = self.suppressions.get(violation.line)
        if codes is None:
            return False
        return "all" in codes or violation.code in codes


def _parse_suppressions(source: str) -> Dict[int, frozenset]:
    """Map line number -> suppressed codes.

    ``# repro-lint: disable=RPL001[,RPL002|all]`` suppresses matching
    findings on its own line; when the comment is the whole line it
    also covers the line directly below (for statements that do not fit
    an inline comment within the line-length budget).
    """
    out: Dict[int, frozenset] = {}
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError:  # unterminated string etc.: ast caught it
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group(1).split(",") if code.strip()
        )
        line = tok.start[0]
        out[line] = out.get(line, frozenset()) | codes
        text = lines[line - 1] if line - 1 < len(lines) else ""
        if text.strip().startswith("#"):  # standalone comment line
            out[line + 1] = out.get(line + 1, frozenset()) | codes
    return out


class Rule:
    """Base class; subclasses set the class attributes and override
    :meth:`check` (per file) and/or :meth:`finalize` (cross-module,
    called once after every file was checked)."""

    code: str = "RPL000"
    name: str = "base"
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterable[Violation]:
        return ()

    def finalize(self, contexts: Sequence[FileContext]) -> Iterable[Violation]:
        return ()

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (code-keyed)."""
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, code order."""
    import repro.devtools.lint.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def _selected(
    rules: List[Rule],
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> List[Rule]:
    if select:
        prefixes = tuple(select)
        rules = [r for r in rules if r.code.startswith(prefixes)]
    if ignore:
        prefixes = tuple(ignore)
        rules = [r for r in rules if not r.code.startswith(prefixes)]
    return rules


def lint_sources(
    sources: Sequence[Tuple[str, str]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint (path, source) pairs; the core entry point (testable)."""
    contexts = [FileContext(path, source) for path, source in sources]
    rules = _selected(all_rules(), select, ignore)
    violations: List[Violation] = []
    for ctx in contexts:
        for rule in rules:
            for violation in rule.check(ctx):
                if not ctx.suppressed(violation):
                    violations.append(violation)
    by_path = {ctx.path: ctx for ctx in contexts}
    for rule in rules:
        for violation in rule.finalize(contexts):
            ctx = by_path.get(violation.path)
            if ctx is None or not ctx.suppressed(violation):
                violations.append(violation)
    return sorted(violations)


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files accepted verbatim)."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            out.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return out


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Tuple[List[Violation], int]:
    """Lint files/trees on disk; returns (violations, files_checked)."""
    files = collect_files(paths)
    sources = [(str(p), p.read_text(encoding="utf-8")) for p in files]
    return lint_sources(sources, select=select, ignore=ignore), len(sources)


def json_report(violations: Sequence[Violation], files: int) -> str:
    """Byte-stable JSON document for artifact upload / trend counting."""
    counts: Dict[str, int] = {}
    for v in violations:
        counts[v.code] = counts.get(v.code, 0) + 1
    doc = {
        "tool": "repro-lint",
        "files": files,
        "total": len(violations),
        "counts_by_code": {code: counts[code] for code in sorted(counts)},
        "violations": [v.as_dict() for v in sorted(violations)],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
