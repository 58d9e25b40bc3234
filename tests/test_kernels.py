"""The numpy row kernel of PrefixTable against the Python kernel, which
stays the reference: cell for cell at every prime below 200, both paths
of the multiply and the in-place reduction against Python ints, shared
block powers against pow and the products they take, full tables at
p = 65537, the inverse row at p = 99991, the rule that picks a
kernel, the row each kernel keeps, single values across block
boundaries, the memory a unit of large-prime checks takes,
byte-identical scans with and without numpy, and the first import of
numpy loading OpenBLAS without threads.  A table picks its kernel in
the constructor, so tests reach the numpy kernel at small primes by
lowering the size threshold while the table is built."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
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
        many = fast.single_values(("mhs", c) for c in WEIGHT6)
        assert many == ref.single_values(("mhs", c) for c in WEIGHT6) and ints(many.values())
        for tr in TRIPLES:
            value, row = fast.weighted_sum2(*tr), fast.weighted_sum2_all(*tr)
            assert type(value) is int and ints(row)
            assert (value, row) == (ref.weighted_sum2(*tr), ref.weighted_sum2_all(*tr))
        for q in QUADS:
            value, row = fast.weighted_sum3(*q), fast.weighted_sum3_all(*q)
            assert type(value) is int and ints(row)
            assert (value, row) == (ref.weighted_sum3(*q), ref.weighted_sum3_all(*q))


# Moduli on both paths of _NumpyKernel._mul: below 2^31 a product of two
# residues fits int64; from 2^31 to 2^40 the second factor is split.
MODULI = [99991, (1 << 31) - 1, 65537**2, 1048573**2]


@pytest.mark.parametrize("m", MODULI)
def test_multiply_matches_python_ints(m):
    np = pytest.importorskip("numpy")
    edges = [v for v in (0, 1, m - 1, (1 << 20) - 1, 1 << 20) if v < m]
    rng = random.Random(m)
    pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(5000)]
    pairs += itertools.product(edges, repeat=2)
    a, b = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    got = mhs._NumpyKernel(np, m)._mul(a, b)
    assert got.tolist() == [x * y % m for x, y in pairs]


@pytest.mark.parametrize("m", MODULI)
def test_reduction_matches_python_mod(m):
    # Negative cells (the Newton lift's 2 - jx), running sums up to and
    # past the largest multiple n * m that int64 holds (prefix), and the
    # int64 extremes all get the residue Python's % gives.
    np = pytest.importorskip("numpy")
    top = (1 << 63) - 1
    n = top // m
    rng = random.Random(m)
    xs = [0, 1, -1, m - 1, m, m + 1, -m, -m - 1, 2 - (m - 1), -top - 1, top]
    xs += [k * m + d for k in (2, n // 2, n - 1, n) for d in (-1, 0, 1)]
    xs += [-x for x in xs if -x <= top]
    xs += [rng.randrange(-top - 1, top) for _ in range(1000)]
    row = np.array(xs, dtype=np.int64)
    assert mhs._reduce(row, m) is row
    assert row.tolist() == [x % m for x in xs]


def test_inverse_row_at_99991_matches_the_python_kernel():
    pytest.importorskip("numpy")
    assert numpy_table(99991, 1).inv_powers(1) == python_table(99991, 1).inv_powers(1)


EXPONENT_SETS = [(1,), (2, 4), (1, 3, 5), (3, 4, 5), (1, 2, 7, 12), (3, 2, 3)]


@pytest.mark.parametrize("exponents", EXPONENT_SETS)
@pytest.mark.parametrize("m", [None, *MODULI])
def test_powers_match_pow_cell_for_cell(m, exponents):
    rng = random.Random(repr((m, exponents)))
    cells = [0, 1] + [rng.randrange(m or 10**6) for _ in range(300)]
    if m is not None:
        cells.append(m - 1)
    want = {s: [pow(x, s, m) for x in cells] for s in exponents}
    got = mhs._PythonKernel(m).powers(cells, exponents)
    assert got == want
    if m is None:
        return  # exact mode is the Python kernel's alone
    np = pytest.importorskip("numpy")
    got = mhs._NumpyKernel(np, m).powers(np.array(cells, dtype=np.int64), exponents)
    assert {s: row.tolist() for s, row in got.items()} == want


def square_and_multiply(s: int) -> int:
    """The products one square-and-multiply power of its own takes."""
    return s.bit_length() - 1 + bin(s).count("1") - 1


# 10**6 has 20 bits, so it costs at most 19 squarings and 19 products.
@pytest.mark.parametrize("exponents", EXPONENT_SETS + [(1, 2, 3, 4), (10**6,)])
def test_powers_share_their_squares(monkeypatch, exponents):
    np = pytest.importorskip("numpy")
    calls = []
    mul = mhs._NumpyKernel._mul
    monkeypatch.setattr(mhs._NumpyKernel, "_mul", lambda *a: calls.append(a) or mul(*a))
    row = np.arange(1, 100, dtype=np.int64)
    mhs._NumpyKernel(np, 99991).powers(row, exponents)
    assert len(calls) <= sum(map(square_and_multiply, set(exponents)))
    if exponents == (1, 2, 3, 4):
        assert len(calls) == 3  # x^2, x^4 and x^3 = x * x^2


def test_full_tables_at_65537_match_the_python_kernel():
    pytest.importorskip("numpy")
    p = 65537
    fast, ref = numpy_table(p, 2), python_table(p, 2)
    for s in (1, 2, 3):
        assert fast.inv_powers(s) == ref.inv_powers(s), s
    assert fast.harmonic_prefix(2) == ref.harmonic_prefix(2)
    assert fast.mhs_all((2, 1)) == ref.mhs_all((2, 1))
    comps = [(1, 1), (1, 1, 1), (3, 1), (1, 3), (1, 5), (3, 3), (1, 2, 1)]
    specs = [("mhs", c) for c in comps]
    assert fast.single_values(specs) == ref.single_values(specs)
    assert fast.weighted_sum2(1, 2, 3) == ref.weighted_sum2(1, 2, 3)
    assert fast.weighted_sum2_all(2, 1, 2) == ref.weighted_sum2_all(2, 1, 2)
    assert fast.weighted_sum3(1, 1, 2, 1) == ref.weighted_sum3(1, 1, 2, 1)


def test_a_block_of_running_sums_fits_int64():
    # A numpy running sum (prefix, total) adds the at most _BLOCK reduced
    # cells of one block, each below m < 2^40, to a reduced carry; the
    # kernel choice checks m only, so a larger _BLOCK must fail here
    # rather than let a sum wrap.
    assert (mhs._BLOCK + 1) << 40 <= 1 << 63


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
            t.single_values(("mhs", c) for c in WEIGHT6)
        finally:
            tracer.uninstall()
        return tracer.counts, list(map(int, t._inv)), type(t._k)

    fast, ref = traced(0), traced(10**9)
    assert fast[2] is mhs._NumpyKernel and ref[2] is mhs._PythonKernel
    assert fast[:2] == ref[:2]
    assert fast[0]["mhs.inv_powers_builds"] > 0


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
    t.weighted_sum2(2, 1, 3)  # keeps the inverse row as an array
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
    assert type(t.weighted_sum2(2, 1, 3)) is int
    assert type(t.single_values([("mhs", (2, 1))])["mhs", (2, 1)]) is int


NUMPY_SPECS = (
    [("mhs", c) for c in WEIGHT6 if sum(c) <= 5]
    + [("weighted_sum", tr) for tr in TRIPLES]
    + [("weighted_sum", q) for q in QUADS]
)


def all_row(t, spec):
    """The row of spec from the table's own *_all method for it."""
    kind, args = spec
    if kind == "mhs":
        return t.mhs_all(args)
    return (t.weighted_sum2_all if len(args) == 3 else t.weighted_sum3_all)(*args)


@pytest.mark.parametrize("block", [64, 999])
@pytest.mark.parametrize("p", [4001, 20011])
def test_numpy_single_values_across_block_boundaries(monkeypatch, p, block):
    # Neither block size divides p - 1, so the last block is a short one;
    # the inverse row's grid and its Newton lift are built in chunks of the
    # same size (one grid row per chunk for 64).  Each *_all call is a pass
    # of its own, and tests/test_one_engine.py pins each to one
    # single_values call, so they are compared with the batched rows at
    # p = 4001 only.
    pytest.importorskip("numpy")
    assert (p - 1) % block
    monkeypatch.setattr(mhs, "_BLOCK", block)
    for e in (1, 2, 3):
        t, ref = build(p, e, 0), python_table(p, e)
        if not isinstance(t._k, mhs._NumpyKernel):
            continue  # 20011^3 >= 2^40: both tables are the Python kernel's
        assert t.inv_powers(1) == ref.inv_powers(1)
        got = t.single_values(NUMPY_SPECS)
        assert got == ref.single_values(NUMPY_SPECS) and ints(got.values())
        rows = t.single_values(NUMPY_SPECS, rows=True)
        for spec in NUMPY_SPECS:
            row = rows[spec]
            assert len(row) == p and row[p - 1] == got[spec], (e, spec)
            if p == 4001:
                assert all_row(t, spec) == row, (e, spec)


def test_bigprime_checks_stay_within_a_few_blocks_of_memory():
    # A unit of the four Bernoulli-free checks at p = 20011 keeps one whole
    # row, the inverses mod p^e, and otherwise blocks of _BLOCK cells.  With
    # whole rows for every prefix and factor it peaked at about 11 rows.
    pytest.importorskip("numpy")
    p = 20011
    checks = ("homog-vanishing-modp", "homog-vanishing-modp2", "h5h4-over-j3")
    unit = (p, (*checks, "cor-sun-modp-even-zero"))
    congruences._run_unit(unit)  # numpy and the registry load outside the trace
    tracemalloc.start()
    try:
        reports, _ = congruences._run_unit(unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.status for r in reports] == ["pass"] * 4
    assert peak < 8 * (2 * p + 32 * mhs._BLOCK)


# --- in fresh interpreters -----------------------------------------------------

NO_NUMPY = 'import sys\nsys.modules["numpy"] = None\n'


def run_python(code: str, **environ: str | None) -> str:
    """The stdout of code run in a fresh interpreter on these sources; each
    keyword sets an environment variable, or unsets it when None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for name, value in environ.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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
        "assert not run_thm21_suite(2, 30).failures\n"
        "lazy = ('numpy', 'multiprocessing', 'concurrent.futures')\n"
        "print(sorted(m for m in lazy if m in sys.modules))\n"
        "print(run_scan('cor-sun-modp', primes_in_range(3, 1000), jobs=2) == serial)\n"
    )
    assert run_python(code) == "[]\nTrue\n"


# --- OpenBLAS threads ------------------------------------------------------------

NO_BLAS_VARS = dict.fromkeys(mhs._BLAS_THREAD_VARS)

ONE_TABLE = (
    "import os\n"
    "from mhslab.mhs import PrefixTable, _NumpyKernel\n"
    "before = dict(os.environ)\n"
    "t = PrefixTable.for_prime(4001)\n"
    "assert isinstance(t._k, _NumpyKernel)\n"
    "assert t.single_values([('mhs', (1, 1))]) == {('mhs', (1, 1)): 0}\n"
    "print(len(os.listdir('/proc/self/task')), dict(os.environ) == before)\n"
    "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
)


def needs_thread_count():
    pytest.importorskip("numpy")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")


def test_the_numpy_kernel_starts_no_blas_threads():
    # The first import of numpy loads OpenBLAS single-threaded, so the
    # process keeps its one thread, and the variable that did it is gone.
    needs_thread_count()
    assert run_python(ONE_TABLE, **NO_BLAS_VARS) == "1 True\nNone\n"


def test_a_user_blas_thread_count_is_kept():
    needs_thread_count()
    out = run_python(ONE_TABLE, **{**NO_BLAS_VARS, "OPENBLAS_NUM_THREADS": "2"})
    assert out.split()[1:] == ["True", "2"]


def test_numpy_imported_first_leaves_the_environment_alone():
    pytest.importorskip("numpy")
    code = (
        "import os, numpy\n"
        "import mhslab.mhs as mhs\n"
        "class Watched(dict):\n"
        "    writes = []\n"
        "    def __setitem__(self, k, v):\n"
        "        self.writes.append(k); super().__setitem__(k, v)\n"
        "    def __delitem__(self, k):\n"
        "        self.writes.append(k); super().__delitem__(k)\n"
        "before = dict(os.environ)\n"
        "os.environ = Watched(before)\n"
        "assert mhs._numpy() is numpy\n"
        "print(Watched.writes, os.environ == before)\n"
    )
    assert run_python(code, **NO_BLAS_VARS) == "[] True\n"



def test_threads_racing_to_the_first_import_leave_the_environment_alone():
    # An environment whose lookups are slow widens the gap between checking
    # and setting the variable: without the lock every thread would set it
    # and all but the first restore would fail.  Each thread must get numpy
    # and the environment must end as it began.
    pytest.importorskip("numpy")
    code = (
        "import os, sys, threading, time\n"
        "import mhslab.mhs as mhs\n"
        "class Slow(dict):\n"
        "    def __contains__(self, k):\n"
        "        time.sleep(0.01)\n"
        "        return super().__contains__(k)\n"
        "before = dict(os.environ)\n"
        "os.environ = Slow(before)\n"
        "start = threading.Barrier(8)\n"
        "got = []\n"
        "def first():\n"
        "    start.wait()\n"
        "    got.append(mhs._numpy())\n"
        "threads = [threading.Thread(target=first) for _ in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(60)\n"
        "import numpy\n"
        "print(sum(m is numpy for m in got), any(t.is_alive() for t in threads),"
        " os.environ == before)\n"
    )
    assert run_python(code, **NO_BLAS_VARS) == "8 False True\n"
