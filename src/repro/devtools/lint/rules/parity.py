"""RPL201/RPL202: one production kernel path, one reference oracle.

Every BFS-shaped primitive runs on the CSR kernels of
:mod:`repro.graphs.csr`; the pure-Python versions survive only as test
oracles in :mod:`repro.graphs.reference`.  RPL201 keeps it that way per
function: no library function may take a ``backend`` parameter, so a
second production arm cannot creep back in behind a knob.  RPL202 is
the cross-module check on the oracles: every public function of
``graphs/reference.py`` is named somewhere under ``tests/``, where the
equivalence suites pin each kernel to its oracle — an oracle no test
names is dead code.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from repro.devtools.lint.engine import FileContext, Rule, Violation, register

#: The module holding the pure-Python oracles, as path parts.
REFERENCE_MODULE = ("repro", "graphs", "reference.py")


def _functions_with_backend(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if "backend" in names:
                yield node


def _is_reference_module(ctx: FileContext) -> bool:
    return ctx.parts[-len(REFERENCE_MODULE) :] == REFERENCE_MODULE


@register
class NoBackendKnobRule(Rule):
    code = "RPL201"
    name = "no-backend-knob"
    summary = (
        "library functions take no backend= parameter: the CSR kernels are "
        "the one production path, pure Python lives in graphs/reference.py"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_library:
            return
        for func in _functions_with_backend(ctx.tree):
            yield self.violation(
                ctx,
                func,
                f"{func.name} takes a backend= parameter; run the CSR kernel "
                "and keep any pure-Python version as a test oracle in "
                "repro.graphs.reference",
            )


@register
class ReferenceOracleCoverageRule(Rule):
    code = "RPL202"
    name = "reference-oracle-coverage"
    summary = (
        "every public function in graphs/reference.py must be named by a "
        "test under tests/ (an oracle no test uses is dead code)"
    )

    def finalize(self, contexts: Sequence[FileContext]) -> Iterator[Violation]:
        tests = [ctx for ctx in contexts if ctx.is_test]
        if not tests:
            return  # partial run (single file / no tests collected)
        corpus = "\n".join(ctx.source for ctx in tests)
        for ctx in contexts:
            if not _is_reference_module(ctx):
                continue
            for func in ctx.tree.body:
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if func.name.startswith("_"):
                    continue
                if re.search(rf"\b{re.escape(func.name)}\b", corpus) is None:
                    yield self.violation(
                        ctx,
                        func,
                        f"reference oracle {func.name!r} is not named by any "
                        "test under tests/; pin it to its kernel in an "
                        "equivalence test or delete it",
                    )
