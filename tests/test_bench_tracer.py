"""The benchmark's span tracer (bench/tracing.py) patches PrefixTable,
BernoulliCache and congruence methods by name; this guards those names
against a refactor that renames or removes one, which would raise
KeyError at install()."""

from pathlib import Path

import mhslab.congruences as congruences
from mhslab.bernoulli import BernoulliCache, bernoulli_exact
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
