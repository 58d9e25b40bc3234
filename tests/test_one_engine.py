"""PrefixTable has one evaluation engine, the blocked walk of
single_values: every public value and row method is one call of it, and
no other method runs the kernel's sums, so a second evaluation path
cannot grow back unnoticed.  inv_powers alone reads the block powers
directly: its row is those powers over 1..n, not a sum."""

import ast
import inspect
import textwrap

import pytest

from mhslab import mhs
from mhslab.mhs import PrefixTable

CALLS = {
    "weighted_sum2": lambda t: t.weighted_sum2(1, 2, 1),
    "weighted_sum3": lambda t: t.weighted_sum3(1, 2, 1, 2),
    "mhs_all": lambda t: t.mhs_all((2, 1, 1)),
    "harmonic_prefix": lambda t: t.harmonic_prefix(3),
    "weighted_sum2_all": lambda t: t.weighted_sum2_all(2, 1, 3),
    "weighted_sum3_all": lambda t: t.weighted_sum3_all(1, 1, 2, 1),
}

TABLES = {
    "exact": lambda: PrefixTable.for_exact(30),
    "python": lambda: PrefixTable.for_prime(101, 2),
    "numpy": lambda: PrefixTable.for_prime(4001, 2),
}


@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("method", CALLS)
def test_each_method_is_one_single_values_call(monkeypatch, method, kind):
    if kind == "numpy":
        pytest.importorskip("numpy")
    t = TABLES[kind]()
    calls = []
    engine = PrefixTable.single_values
    monkeypatch.setattr(
        PrefixTable, "single_values", lambda *a, **k: calls.append(a) or engine(*a, **k)
    )
    CALLS[method](t)
    assert len(calls) == 1


def test_only_the_engine_runs_the_kernel_sums():
    # The kernel's product and running-sum steps are called from
    # single_values alone.
    tree = ast.parse(textwrap.dedent(inspect.getsource(PrefixTable)))
    sums = {"times", "prefix", "total"}
    callers = {
        method.name
        for method in tree.body[0].body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in sums
    }
    assert callers == {"single_values"}
    # The one row a table keeps is the inverse row of mod mode.
    assert PrefixTable.__slots__ == ("n", "prime", "exponent", "modulus", "scale", "_k", "_inv")


def test_both_kernels_define_the_same_steps():
    # A table calls its kernel without knowing which one it has, so a step
    # defined on one kernel only would break the other's tables.  Reading
    # the class bodies needs no numpy.
    def steps(kernel):
        return {name for name, v in vars(kernel).items() if callable(v) and name[0] != "_"}

    assert steps(mhs._PythonKernel) == steps(mhs._NumpyKernel)
    assert {"times", "prefix", "total"} <= steps(mhs._PythonKernel)
