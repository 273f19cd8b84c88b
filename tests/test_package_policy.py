"""Package policy: the standard library only, an export list that matches the
imports, and the public API's documented refusals of inputs it cannot take."""

from __future__ import annotations

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padic_lseries
from padic_lseries import (
    PrimeMismatchError,
    character_at,
    delta_provider,
    dirichlet_series,
    factorize_local,
    inner_product,
    ket,
    padic_from_fraction,
    symmetric_power_sum,
    unit_group,
    verify_recursion,
    wavelet_eval,
)

PACKAGE = Path(padic_lseries.__file__).resolve().parent


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_imports_only_the_standard_library_or_the_package():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "padic_lseries":
                    outside.append(f"{path.name}:{node.lineno} imports {name}")
    assert outside == []


def test_all_names_exactly_the_public_imports_of_init():
    imported = [
        alias.asname or alias.name
        for node in _parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]
    assert len(padic_lseries.__all__) == len(set(padic_lseries.__all__))
    assert sorted(padic_lseries.__all__) == sorted(imported)
    for name in padic_lseries.__all__:
        assert getattr(padic_lseries, name) is not None


_REFUSALS = {
    "series-of-no-terms": (
        lambda: dirichlet_series(character_at(unit_group(4), 1), 2, 0), ValueError,
        "the partial sum needs N >= 1"),
    "modular-series-past-its-table": (
        lambda: dirichlet_series(delta_provider(10), 8, 11), IndexError,
        "coefficient a(11) outside the stored range 1..10"),
    "recursion-at-order-0": (
        lambda: verify_recursion(delta_provider(8), 2, 0), ValueError, "the recursion needs m >= 1"),
    "symmetric-power-of-order-minus-1": (
        lambda: symmetric_power_sum(factorize_local(delta_provider(2), 2), -1), ValueError,
        "m must be nonnegative"),
    "ket-of-a-negative-label": (lambda: ket(3, -1), ValueError, "kets carry nonnegative labels"),
    "wavelet-at-a-point-of-another-prime": (
        lambda: wavelet_eval(ket(3, 0), padic_from_fraction(5, Fraction(1))), PrimeMismatchError,
        "wavelet over Q_3 evaluated at a Q_5 point"),
    "wavelets-of-two-primes-paired": (
        lambda: inner_product(ket(3, 0), ket(5, 0), 2), PrimeMismatchError,
        "wavelets over different fields cannot be paired"),
    "unit-group-mod-0": (lambda: unit_group(0), ValueError, "modulus must be positive"),
    "odd-composite-as-a-prime": (
        lambda: padic_from_fraction(9, Fraction(1)), ValueError, "prime must be prime, got 9"),
}


@pytest.mark.parametrize("call, error, message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_a_documented_refusal_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
