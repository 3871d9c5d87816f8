"""REPRO102: scan kernels charge counters before filtering, and only the
shared kernel reads heap pages.

Every batch size must report identical ``rows_examined`` for the same
snapshot, which only holds if the kernel charges the counter *before* MVCC
visibility filtering and predicate evaluation drop rows.  The dynamic twin
is the differential fuzzer (``tests/engine/test_fuzz_parity.py``) plus the
parity assertions in ``benchmarks/test_batch_parity.py`` and the golden
counters of ``tests/golden.py``; this checker pins the two code shapes the
fuzzer relies on:

* ``HeapFile.read_page``/``read_pages``/``read_page_run`` may only be
  called from the one shared kernel in ``engine/access.py``
  (``AccessPath._sweep``) -- every other operator goes through it, so
  accounting lives in exactly one place;
* any function that both charges an examined counter and filters rows
  must charge first (smaller line number than the first filter call).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleSource
from repro.lint.registry import Rule, register_rule
from repro.lint.rules._common import (
    terminal_attribute,
    walk_functions,
    walk_own_nodes,
)
from repro.lint.violations import Violation

#: The only function allowed to pull heap pages.
SHARED_KERNELS = frozenset({"_sweep"})
KERNEL_MODULE = "engine/access.py"

#: Page-pulling heap APIs owned by the shared kernels.
PAGE_READS = frozenset({"read_page", "read_pages", "read_page_run"})

#: Counter names whose ``+=`` constitutes "charging" an examined row.
CHARGE_NAMES = frozenset({"examined", "rows_examined"})

#: Calls that drop rows: MVCC visibility, predicate evaluation, fused
#: batch kernels.
FILTER_CALLS = frozenset({"visible", "matches", "kernel"})


def _charge_lines(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[int]:
    lines: list[int] = []
    for node in walk_own_nodes(function):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if terminal_attribute(node.target) in CHARGE_NAMES:
                lines.append(node.lineno)
    return lines


def _filter_lines(function: ast.FunctionDef | ast.AsyncFunctionDef) -> list[int]:
    lines: list[int] = []
    for node in walk_own_nodes(function):
        if isinstance(node, ast.Call):
            if terminal_attribute(node.func) in FILTER_CALLS:
                lines.append(node.lineno)
    return lines


@register_rule
class ParityAccountingRule(Rule):
    rule_id = "REPRO102"
    name = "parity-accounting"
    description = (
        "heap page reads only inside the shared scan kernel, and examined "
        "counters charged before visibility/predicate filtering"
    )

    def applies_to(self, path: str) -> bool:
        # Storage owns the read APIs themselves; everything else in the
        # engine tree is in scope.
        parts = path.split("/")[:-1]
        return "storage" not in parts

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        in_kernel_module = module.relpath.endswith(KERNEL_MODULE)
        for function in walk_functions(module.tree):
            allowed = in_kernel_module and function.name in SHARED_KERNELS
            if not allowed:
                for node in walk_own_nodes(function):
                    if not isinstance(node, ast.Call):
                        continue
                    name = terminal_attribute(node.func)
                    if isinstance(node.func, ast.Attribute) and name in PAGE_READS:
                        yield self.violation(
                            module,
                            node.lineno,
                            node.col_offset + 1,
                            f".{name}() outside the shared scan kernel -- "
                            "route page access through AccessPath._sweep so "
                            "parity accounting stays in one place",
                        )
            charges = _charge_lines(function)
            filters = _filter_lines(function)
            if charges and filters and min(filters) < min(charges):
                yield self.violation(
                    module,
                    min(filters),
                    1,
                    f"{function.name!r} filters rows (line {min(filters)}) "
                    f"before charging the examined counter (line "
                    f"{min(charges)}); charge before visibility/predicate "
                    "filtering so row and batch paths agree",
                )
