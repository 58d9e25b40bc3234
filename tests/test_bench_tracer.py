"""The benchmark's span tracer (bench/tracing.py) patches PrefixTable,
BernoulliCache and congruence methods by name, and every module's
by-name import of a wrapped function; this guards those names against a
refactor that renames, removes or moves one, which would raise KeyError
at install() or leave a name unwrapped."""

from pathlib import Path

import mhslab
import mhslab.congruences as congruences
import mhslab.identities as identities
import mhslab.mhs as mhs
from mhslab.bernoulli import BernoulliCache, bernoulli_exact
from mhslab.compositions import stuffle
from mhslab.mhs import PrefixTable

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = dict(vars(PrefixTable))
    tracer = tracing.Tracer().install()
    try:
        assert tracing.count_wrappers() > 0
        # A check of H(...) sums and one of weighted sums, each member
        # through one single-value pass, then a weighted sum by its name.
        mhs_report = congruences.run_check("homog-vanishing-modp", 101)
        wsum_report = congruences.run_check("cor-sun-modp", 101)
        wsum = PrefixTable.for_prime(101).weighted_sum2(1, 1, 1)
    finally:
        tracer.uninstall()
    assert tracing.count_wrappers() == 0
    assert dict(vars(PrefixTable)) == originals
    assert mhs_report.status == wsum_report.status == "pass" and wsum == 76
    assert tracer.counts["congruences.run_check_calls"] == 2
    assert tracer.counts["mhs.tables_mod"] == 3
    assert tracer.counts["mhs.inv_powers_calls"] > 0
    inclusive, _ = tracer.times()
    assert inclusive["congruences.run_check"] > 0 and inclusive["mhs.wsum2"] > 0


def test_tracer_sees_the_exact_bernoulli_cache(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = dict(vars(BernoulliCache))
    tracer = tracing.Tracer().install()
    try:
        bernoulli_exact(40)
    finally:
        tracer.uninstall()
    assert dict(vars(BernoulliCache)) == originals
    assert [span[0] for span in tracer.spans] == ["bernoulli.warm"]
    assert tracer.counts["bernoulli.top_index"] == 40


def test_tracer_wraps_every_name_of_eval_formal_sum(monkeypatch):
    # eval_formal_sum lives in mhs and is re-exported by identities and the
    # package; the tracer wraps it under its identities name.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    original = mhs.eval_formal_sum
    tracer = tracing.Tracer().install()
    try:
        wrapper = identities.eval_formal_sum
        assert wrapper is not original
        assert mhs.eval_formal_sum is wrapper and mhslab.eval_formal_sum is wrapper
        assert wrapper(stuffle((1,), (2,)), 6) == mhs.mhs_exact((1,), 6) * mhs.mhs_exact((2,), 6)
    finally:
        tracer.uninstall()
    assert "identities.eval_formal_sum" in [span[0] for span in tracer.spans]
    for module in (identities, mhs, mhslab):
        assert module.eval_formal_sum is original
