"""The package's record types are NamedTuples: immutable, hashable tuples
whose fields read as attributes.  These tests pin what the code relies
on: Residue validates and reduces however it is built, records survive
the pickling that pool workers use, and a report is its own CSV row."""

import pickle
from fractions import Fraction

import pytest

from mhslab.congruences import (
    CheckReport,
    FitResult,
    fit_coefficient,
    fit_families,
    get_check,
    reports_to_csv,
    run_check,
)
from mhslab.exactnum import Residue
from mhslab.identities import IdentityInstance, run_thm21_suite


def _records():
    """One instance of each of the eight record types."""
    check = get_check("cor-sun-modp2")
    fam = fit_families()["sun-s1"]
    return [
        Residue(7, 5, 1),
        check.members[0],
        check,
        run_check("cor-sun-modp2", 7),
        fam,
        fit_coefficient(fam.lhs, fam.w, (7, 11, 13, 17), t=fam.t, e=fam.e),
        IdentityInstance("x", (1,), 3, Fraction(1), Fraction(2)),
        run_thm21_suite(2, 10),
    ]


def test_residue_reduces_and_validates_however_it_is_built():
    r = Residue(7, 5, 1)
    assert r.value == 2 and r == (2, 5, 1)
    assert repr(r) == "Residue(value=2, prime=5, exponent=1)"
    assert r._replace(value=12) == r
    with pytest.raises(ValueError, match="odd prime"):
        Residue(1, 9, 1)
    with pytest.raises(ValueError, match="odd prime"):
        r._replace(prime=9)
    with pytest.raises(ValueError, match="exponent"):
        Residue._make((1, 5, 4))


def test_residue_and_report_survive_pickling():
    # Pool workers hand both back to the parent process this way.
    for record in (Residue(30, 7, 2), run_check("cor-sun-modp2", 11)):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record


@pytest.mark.parametrize("index", range(8))
def test_records_are_immutable_and_hashable(index):
    record = _records()[index]
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert hash(record) == hash(_records()[index])


def test_records_compare_by_value():
    assert FitResult((7,), (), Fraction(1)) == FitResult((7,), (), Fraction(1))
    assert run_check("cor-sun-modp2", 7) == tuple(run_check("cor-sun-modp2", 7))


def test_report_fields_are_the_csv_header():
    assert CheckReport._fields == ("check_id", "p", "e", "status", "lhs", "rhs", "note")
    report = run_check("cor-sun-modp2", 7)
    header, row = reports_to_csv([report]).splitlines()
    assert header == ",".join(CheckReport._fields)
    assert row == ",".join(map(str, report))
    assert list(report.to_dict()) == list(CheckReport._fields)
    assert repr(report).startswith("CheckReport(check_id='cor-sun-modp2', p=7, e=2, ")
