"""The numpy row kernel of PrefixTable against the Python kernel, which
stays the reference: cell for cell at every prime below 200, the split
multiply on random pairs, full tables at p = 65537, the rule that picks a
kernel, the rows each kernel caches, and byte-identical scans with and
without numpy.  A table picks its kernel in the constructor, so tests reach
the numpy kernel at small primes by lowering the size threshold while the
table is built."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mhslab
import mhslab.congruences as congruences
import mhslab.mhs as mhs
from mhslab.compositions import Composition
from mhslab.exactnum import primes_in_range
from mhslab.mhs import EXACT_N_CAP, PrefixTable

SRC = Path(mhslab.__file__).resolve().parent.parent
BENCH = SRC.parent / "bench"

WEIGHT6 = [
    Composition(c)
    for w in range(1, 7)
    for k in range(1, w + 1)
    for c in itertools.product(range(1, w + 1), repeat=k)
    if sum(c) == w
]
TRIPLES = list(itertools.product((1, 2, 3), repeat=3))
QUADS = list(itertools.product((1, 2), repeat=4))


def build(p: int, e: int, min_n: int) -> PrefixTable:
    """A mod-p^e table built while the numpy size threshold is min_n."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mhs, "_NUMPY_MIN_N", min_n)
        return PrefixTable.for_prime(p, e)


def numpy_table(p: int, e: int) -> PrefixTable:
    t = build(p, e, 0)
    assert isinstance(t._k, mhs._NumpyKernel)
    return t


def python_table(p: int, e: int) -> PrefixTable:
    t = build(p, e, p)
    assert isinstance(t._k, mhs._PythonKernel)
    return t


def ints(values) -> bool:
    return all(type(v) is int for v in values)


@pytest.mark.parametrize("p", primes_in_range(3, 199))
def test_kernels_agree_cell_for_cell(p):
    pytest.importorskip("numpy")
    for e in (1, 2, 3):
        fast, ref = numpy_table(p, e), python_table(p, e)
        inv = fast.inv_powers(1)
        assert type(inv) is list and ints(inv)
        assert inv == ref.inv_powers(1) == [0] + [pow(j, -1, p**e) for j in range(1, p)]
        for s in range(1, 6):
            assert fast.inv_powers(s) == ref.inv_powers(s), (p, e, s)
            row = fast.harmonic_prefix(s)
            assert row == ref.harmonic_prefix(s) and ints(row), (p, e, s)
        for c in WEIGHT6:
            row = fast.mhs_all(c)
            assert row == ref.mhs_all(c) and ints(row), (p, e, c)
        many = fast.mhs_many(WEIGHT6)
        assert many == ref.mhs_many(WEIGHT6) and ints(many.values())
        for tr in TRIPLES:
            value, row = fast.weighted_sum2(*tr), fast.weighted_sum2_all(*tr)
            assert type(value) is int and ints(row)
            assert (value, row) == (ref.weighted_sum2(*tr), ref.weighted_sum2_all(*tr))
        for q in QUADS:
            value, row = fast.weighted_sum3(*q), fast.weighted_sum3_all(*q)
            assert type(value) is int and ints(row)
            assert (value, row) == (ref.weighted_sum3(*q), ref.weighted_sum3_all(*q))


@pytest.mark.parametrize("m", [65537**2, 1048573**2])
def test_split_multiply_matches_python_ints(m):
    np = pytest.importorskip("numpy")
    assert 1 << 31 <= m < 1 << 40  # both take the split path
    rng = random.Random(m)
    a = [rng.randrange(m) for _ in range(5000)] + [m - 1, m - 1, 0, 1, (1 << 20) - 1]
    b = [rng.randrange(m) for _ in range(5000)] + [m - 1, 1 << 20, m - 1, m - 1, m - 1]
    got = mhs._NumpyKernel(np, m)._mul(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got.tolist() == [x * y % m for x, y in zip(a, b)]


def test_full_tables_at_65537_match_the_python_kernel():
    pytest.importorskip("numpy")
    p = 65537
    fast, ref = numpy_table(p, 2), python_table(p, 2)
    for s in (1, 2, 3):
        assert fast.inv_powers(s) == ref.inv_powers(s), s
    assert fast.harmonic_prefix(2) == ref.harmonic_prefix(2)
    assert fast.mhs_all((2, 1)) == ref.mhs_all((2, 1))
    comps = [(1, 1), (1, 1, 1), (3, 1), (1, 3), (1, 5), (3, 3), (1, 2, 1)]
    assert fast.mhs_many(comps) == ref.mhs_many(comps)
    assert fast.weighted_sum2(1, 2, 3) == ref.weighted_sum2(1, 2, 3)
    assert fast.weighted_sum2_all(2, 1, 2) == ref.weighted_sum2_all(2, 1, 2)
    assert fast.weighted_sum3(1, 1, 2, 1) == ref.weighted_sum3(1, 1, 2, 1)


def test_kernel_choice():
    pytest.importorskip("numpy")
    kind = lambda t: type(t._k)
    assert kind(PrefixTable.for_prime(4099, 1)) is mhs._NumpyKernel
    assert kind(PrefixTable.for_prime(1048573, 2)) is mhs._NumpyKernel
    # m = p^e >= 2^40: the products would not fit int64.
    assert kind(PrefixTable.for_prime(20011, 3)) is mhs._PythonKernel
    assert kind(PrefixTable.for_prime(1048583, 2)) is mhs._PythonKernel
    # Below the size threshold, and every exact table.
    assert kind(PrefixTable.for_prime(3989)) is mhs._PythonKernel
    for n in (0, 5000, EXACT_N_CAP):
        assert kind(PrefixTable.for_exact(n)) is mhs._PythonKernel


def test_both_kernels_cache_the_same_rows(monkeypatch):
    pytest.importorskip("numpy")
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    def traced(min_n):
        monkeypatch.setattr(mhs, "_NUMPY_MIN_N", min_n)
        tracer = tracing.Tracer().install()
        try:
            for check in ("homog-vanishing-modp2", "cor-sun-modp-even-zero", "h5h4-over-j3"):
                assert congruences.run_check(check, 4099).status == "pass"
            t = PrefixTable.for_prime(4099, 3)
            t.weighted_sum3_all(2, 1, 1, 3)
            t.mhs_all((4, 1))
            t.mhs_many(WEIGHT6)
        finally:
            tracer.uninstall()
        return tracer.counts, t._ipow.keys(), t._hpref.keys(), type(t._k)

    fast, ref = traced(0), traced(10**9)
    assert fast[3] is mhs._NumpyKernel and ref[3] is mhs._PythonKernel
    assert fast[:3] == ref[:3]
    assert fast[0]["mhs.inv_powers_builds"] > 0 and fast[0]["mhs.harmonic_prefix_builds"] > 0


def test_internal_builds_never_convert_rows(monkeypatch):
    # Inside a numpy table the rows stay int64 arrays: only a caller
    # outside the table gets a list.
    pytest.importorskip("numpy")
    monkeypatch.setattr(mhs, "_NUMPY_MIN_N", 0)
    kernels, conversions = [], []
    kernel, tolist = mhs._kernel, mhs._NumpyKernel.tolist
    monkeypatch.setattr(mhs, "_kernel", lambda *a: kernels.append(kernel(*a)) or kernels[-1])
    monkeypatch.setattr(
        mhs._NumpyKernel, "tolist", lambda *a, **k: conversions.append(a) or tolist(*a, **k)
    )
    for check in ("homog-vanishing-modp2", "cor-sun-modp-even-zero", "h5h4-over-j3"):
        assert congruences.run_check(check, 4099).status == "pass"
    assert kernels and all(isinstance(k, mhs._NumpyKernel) for k in kernels)
    assert conversions == []


def test_numpy_rows_reach_callers_as_fresh_lists_of_ints():
    pytest.importorskip("numpy")
    t, ref = numpy_table(4099, 2), python_table(4099, 2)
    t.weighted_sum2(2, 1, 3)  # caches inv_powers(1) and harmonic_prefix(2, 3) as arrays
    rows = {
        "inv_powers": lambda t: t.inv_powers(1),
        "harmonic_prefix": lambda t: t.harmonic_prefix(3),
        "mhs_all": lambda t: t.mhs_all((2, 1)),
        "weighted_sum2_all": lambda t: t.weighted_sum2_all(2, 1, 3),
        "weighted_sum3_all": lambda t: t.weighted_sum3_all(2, 1, 3, 1),
    }
    for name, get in rows.items():
        row = get(t)
        assert type(row) is list and ints(row), name
        assert row == get(ref), name
        row[1] += 1
        assert get(t) == get(ref), name
    assert type(t.weighted_sum2(2, 1, 3)) is int and type(t.mhs((2, 1))) is int


# --- in fresh interpreters -----------------------------------------------------

NO_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("MHSLAB_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scan(jobs: int) -> str:
    argv = ["scan", "--check", "homog-vanishing-modp2", "--primes", "20011,65537"]
    argv += ["--format", "csv", "--jobs", str(jobs)]
    return f"from mhslab.cli import main\nraise SystemExit(main({argv!r}))\n"


def test_scan_csv_is_identical_with_and_without_numpy():
    pytest.importorskip("numpy")
    with_numpy = run_python(scan(1))
    lines = with_numpy.splitlines()
    assert len(lines) == 3 and all(",pass," in line for line in lines[1:])
    assert run_python(NO_NUMPY + scan(1)) == with_numpy
    assert run_python(scan(2)) == with_numpy
    assert run_python(NO_NUMPY + scan(2)) == with_numpy


def test_serial_runs_never_import_numpy_or_the_pool():
    # numpy loads with the first large table, the pool machinery with the
    # first pool: a small serial run loads neither, and a pool started
    # afterwards in the same interpreter still gives the serial reports.
    code = (
        "import sys\n"
        "import mhslab.cli\n"
        "from mhslab.congruences import registry, run_check, run_scan\n"
        "from mhslab.exactnum import primes_in_range\n"
        "from mhslab.identities import run_thm21_suite\n"
        "registry()\n"
        "assert run_check('cor-sun-modp', 101).status == 'pass'\n"
        "serial = run_scan('cor-sun-modp', primes_in_range(3, 1000), jobs=1)\n"
        "assert run_thm21_suite(2, 30).ok\n"
        "lazy = ('numpy', 'multiprocessing', 'concurrent.futures')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print(run_scan('cor-sun-modp', primes_in_range(3, 1000), jobs=2) == serial)\n"
    )
    assert run_python(code) == "[]\nTrue\n"
