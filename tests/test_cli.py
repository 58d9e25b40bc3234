"""Command-line interface: argument handling, output text, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mhslab
import mhslab.cli as cli
from mhslab.bernoulli import DEFAULT_CAP, BernoulliCache, bernoulli_mod
from mhslab.cli import build_parser, main, parse_primes
from mhslab.exactnum import MAX_PRIME
from mhslab.mhs import mhs_exact


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def run_cli_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


# --- eval ------------------------------------------------------------------


def test_eval_exact(capsys):
    assert run_cli(["eval", "--mhs", "1,2", "--n", "6"], capsys) == (0, "2929/4320\n")


def test_eval_mod_prime_power(capsys):
    code, out = run_cli(["eval", "--mhs", "1,3,1", "--prime", "7", "--e", "2"], capsys)
    assert (code, out) == (0, "14 (mod 49)\n")


def test_eval_weighted_sums(capsys):
    assert run_cli(["eval", "--wsum2", "1,1,1", "--prime", "7"], capsys) == (
        0,
        "3 (mod 7)\n",
    )
    code, out = run_cli(["eval", "--wsum3", "2,2,2,3", "--n", "5"], capsys)
    assert code == 0
    assert out == "19444115078101727/10077696000000000\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_eval_prints_values_past_the_int_digit_limit(capsys):
    # The exact H(1,2,1; 700) has a numerator of about 700 digits; at the
    # default limit of 4300 digits the same failure starts near n = 4300.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(["eval", "--mhs", "1,2,1", "--n", "700"], capsys)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    value = mhs_exact((1, 2, 1), 700)
    assert code == 0
    assert len(str(value.numerator)) > 640
    assert out == f"{value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mhs", "1,2"],  # neither --n nor --prime
        ["eval", "--mhs", "1,2", "--n", "5", "--prime", "7"],  # both
        ["eval", "--n", "5"],  # no sum selected
        ["eval", "--mhs", "1", "--wsum2", "1,1,1", "--n", "5"],  # two sums
        ["eval", "--wsum2", "1,1", "--n", "5"],  # wrong arity
        ["eval", "--wsum3", "1,1,1", "--n", "5"],
        ["eval", "--mhs", "1,x", "--n", "5"],  # unparseable composition
        ["eval", "--mhs", "1", "--prime", "9"],  # composite modulus
    ],
)
def test_eval_usage_errors(argv, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mhs", "(1,2)", "--n", "6", "--e", "3"],
        ["eval", "--wsum2", "1,1,1", "--n", "6", "--e", "1"],
        ["bernoulli", "--n", "12", "--e", "3"],
    ],
)
def test_exponent_without_a_prime_is_a_usage_error(argv, capsys):
    # an exact value takes no exponent, so --e would be ignored
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert "--e: no effect without --prime" in err


# --- stuffle / bernoulli ---------------------------------------------------


def test_stuffle_output(capsys):
    assert run_cli(["stuffle", "--a", "1", "--b", "2"], capsys) == (
        0,
        "(1,2) + (2,1) + (3)\n",
    )


def test_stuffle_bad_input(capsys):
    code, _ = run_cli_error(["stuffle", "--a", "0", "--b", "1"], capsys)
    assert code == 2


def test_bernoulli_exact(capsys):
    assert run_cli(["bernoulli", "--n", "12"], capsys) == (0, "-691/2730\n")


def test_bernoulli_mod(capsys):
    assert run_cli(["bernoulli", "--n", "4", "--prime", "7"], capsys) == (
        0,
        "3 (mod 7)\n",
    )


def test_bernoulli_small_index_at_huge_prime(capsys):
    # Reduced from the exact value, not from O(p) power sums.
    assert run_cli(["bernoulli", "--n", "12", "--prime", "1000000007", "--e", "2"], capsys) == (
        0,
        "83882785057142861 (mod 1000000014000000049)\n",
    )


def test_bernoulli_pole_is_a_usage_error(capsys):
    code, err = run_cli_error(["bernoulli", "--n", "6", "--prime", "7"], capsys)
    assert code == 2
    assert "denominator" in err


def test_bernoulli_pole_message_is_the_same_on_both_paths(capsys):
    # --n 2 reduces the exact value, --n 3000 takes the power sums; both
    # name the pole the same way.
    for n, p in ((2, 3), (3000, 7)):
        code, err = run_cli_error(["bernoulli", "--n", str(n), "--prime", str(p)], capsys)
        assert code == 2
        assert f"p = {p} divides the denominator of B_{n}" in err


# 10000019 is the smallest prime above the limit.
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--mhs", "1", "--prime", "10000019"],
        ["eval", "--wsum3", "2,2,2,3", "--prime", "10000019", "--e", "3"],
        ["scan", "--check", "homog-vanishing-modp2", "--primes", "10000019"],
        ["scan", "--check", "cor-sun-modp", "--primes", "10000019", "--jobs", "1"],
        ["fit", "--family", "sun-s1", "--primes", "10000019"],
        ["bernoulli", "--n", "3002", "--prime", "10000019"],
    ],
)
def test_o_of_p_work_past_the_prime_limit_is_a_usage_error(argv, capsys):
    assert MAX_PRIME == 10**7
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert "prime 10000019 exceeds the limit 10000000" in err


@pytest.mark.parametrize(
    "prime, message",
    [
        # psi_12, which passes Miller-Rabin at every prime base up to 37
        ("318665857834031151167461", "must be an odd prime"),
        # psi_13, past every base up to 41: primality cannot be certified
        ("3317044064679887385961981", "cannot certify primality"),
    ],
)
def test_bernoulli_at_a_strong_pseudoprime_is_a_usage_error(prime, message, capsys):
    code, err = run_cli_error(["bernoulli", "--n", "12", "--prime", prime], capsys)
    assert code == 2 and message in err


def test_bernoulli_past_the_exact_cap_uses_power_sums(capsys):
    assert DEFAULT_CAP < 3002
    assert run_cli(["bernoulli", "--n", "3002", "--prime", "7"], capsys) == (
        0,
        f"{bernoulli_mod(3002, 7, 1)}\n",
    )
    code, err = run_cli_error(["bernoulli", "--n", "3000", "--prime", "7"], capsys)
    assert code == 2
    assert "denominator of B_3000" in err and "cap" not in err


BERNOULLI_GRID = [
    (n, p, e)
    for n in (0, 1, 2, 3, 4, 10, 12, 22, 24, 100, 130, 140, 500)
    for p in (3, 5, 7, 11, 13, 101, 1009, 4001)
    for e in (1, 2, 3)
]


def run_bernoulli(n, p, e, capsys):
    """(exit code, stdout, stderr) of `bernoulli --n n --prime p --e e`."""
    try:
        code = main(["bernoulli", "--n", str(n), "--prime", str(p), "--e", str(e)])
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_bernoulli_paths_agree_across_the_cost_boundary(monkeypatch, capsys):
    # The grid holds points on both sides of the boundary and poles
    # ((p-1) | n), where both paths must name the same pole.
    choices = {cli._exact_bernoulli_is_cheaper(n, p, e) for n, p, e in BERNOULLI_GRID}
    assert choices == {True, False}
    poles = 0
    for n, p, e in BERNOULLI_GRID:
        answers = []
        for exact in (True, False):
            monkeypatch.setattr(cli, "_exact_bernoulli_is_cheaper", lambda *a, x=exact: x)
            answers.append(run_bernoulli(n, p, e, capsys))
        assert answers[0] == answers[1], (n, p, e)
        poles += answers[0][0] == 2
        assert answers[0][0] == 0 or "denominator" in answers[0][2], (n, p, e)
    assert poles > 0


def test_bernoulli_at_a_small_prime_never_warms_the_exact_cache(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the exact cache was warmed")

    monkeypatch.setattr(cli, "bernoulli_exact", refuse)
    monkeypatch.setattr(BernoulliCache, "warm", refuse)
    assert run_cli(["bernoulli", "--n", "2000", "--prime", "7"], capsys) == (
        0,
        f"{bernoulli_mod(2000, 7, 1)}\n",
    )


# --- identity --------------------------------------------------------------


def test_identity_thm21(capsys):
    code, out = run_cli(["identity", "--thm", "2.1", "--smax", "2", "--nmax", "10"], capsys)
    assert code == 0
    assert out == "thm21: 176 instances, 0 failures\n"


def test_identity_thm31_at_primes(capsys):
    code, out = run_cli(
        ["identity", "--thm", "3.1", "--at-primes", "5,7", "--smax", "2"], capsys
    )
    assert code == 0
    assert out == "thm31: 32 instances, 0 failures\n"


def test_identity_thm31_with_probes(capsys):
    code, out = run_cli(["identity", "--thm", "3.1", "--smax", "2", "--probes", "5"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "thm31: 64 instances, 0 failures",
        "thm31-general-n: 5 instances, 0 failures",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--thm", "2.1", "--smax", "2", "--nmax", "20000"],
        ["identity", "--thm", "3.1", "--smax", "2", "--probes", "5", "--nmax", "1000000000"],
    ],
)
def test_identity_nmax_above_exact_cap(argv, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert "exceeds cap 10000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identity", "--thm", "3.1", "--probes", "3", "--nmax", "3"], "nmax must be >= 5"),
        (["identity", "--thm", "3.1", "--probes", "-2"], "probe count must be >= 0"),
    ],
)
def test_identity_probes_it_cannot_serve(argv, message, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["identity", "--thm", "2.1", "--probes", "5", "--at-primes", "7"],
            "--at-primes, --probes: no effect with --thm 2.1",
        ),
        (["identity", "--thm", "2.1", "--seed", "3"], "--seed: no effect with --thm 2.1"),
        (["identity", "--thm", "3.1", "--nmax", "50"], "--nmax: no effect without --probes"),
        (
            ["identity", "--thm", "3.1", "--probes", "0", "--seed", "3"],
            "--seed: no effect without --probes",
        ),
    ],
)
def test_identity_flags_the_suite_ignores(argv, message, capsys):
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert message in err


def test_identity_probe_seed_defaults_to_1729(monkeypatch, capsys):
    seeds = []
    probe = cli.probe_thm31_random

    def spy(count, **kwargs):
        seeds.append(kwargs["seed"])
        return probe(count, **kwargs)

    monkeypatch.setattr(cli, "probe_thm31_random", spy)
    base = ["identity", "--thm", "3.1", "--smax", "1", "--probes", "2"]
    assert run_cli(base, capsys)[0] == run_cli([*base, "--seed", "5"], capsys)[0] == 0
    assert seeds == [1729, 5]


def test_identity_bad_smax(capsys):
    code, _ = run_cli_error(["identity", "--thm", "2.1", "--smax", "0"], capsys)
    assert code == 2


# --- scan ------------------------------------------------------------------


def test_scan_text_output(capsys):
    code, out = run_cli(["scan", "--check", "h-ones-modp3", "--primes", "5,7"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "h-ones-modp3  p=5  pass",
        "h-ones-modp3  p=7  pass",
        "2 primes: 2 pass, 0 fail, 0 skipped",
    ]


def test_scan_csv_output(capsys):
    code, out = run_cli(
        ["scan", "--check", "cor-sun-modp", "--primes", "5,7", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == (
        "check_id,p,e,status,lhs,rhs,note\n"
        "cor-sun-modp,5,1,skipped(hypothesis),,,requires p >= 6\n"
        "cor-sun-modp,7,1,pass,s=1=3,s=1=3,\n"
    )


def test_scan_json_output(capsys):
    code, out = run_cli(
        ["scan", "--check", "cor-sun-modp", "--primes", "7..20", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert [r["p"] for r in doc["reports"]] == [7, 11, 13, 17, 19]
    assert all(r["status"] == "pass" for r in doc["reports"])


def test_scan_failures_set_exit_code(capsys):
    code, out = run_cli(["scan", "--check", "cor34-first", "--primes", "11..31"], capsys)
    assert code == 1
    assert "fitted=-11/3" in out
    assert out.strip().endswith("7 primes: 0 pass, 7 fail, 0 skipped")


def test_scan_all_skipped_is_success(capsys):
    code, out = run_cli(
        ["scan", "--check", "hoffman-chain-B3sq", "--primes", "7,7"], capsys
    )
    assert code == 0
    assert "skipped(hypothesis)" in out
    assert out.strip().endswith("1 primes: 0 pass, 0 fail, 1 skipped")


def test_scan_rejects_bad_primes(capsys):
    code, _ = run_cli_error(["scan", "--check", "cor-sun-modp", "--primes", "4,6"], capsys)
    assert code == 2
    code, _ = run_cli_error(["scan", "--check", "oops", "--primes", "7"], capsys)
    assert code == 2


# --- fit -------------------------------------------------------------------


def test_fit_known_family(capsys):
    assert run_cli(["fit", "--family", "sun-s1", "--primes", "7..50"], capsys) == (
        0,
        "1\n",
    )


def test_fit_family_with_override(capsys):
    code, out = run_cli(
        ["fit", "--family", "cor34-1", "--primes", "11..100"], capsys
    )
    assert (code, out) == (0, "-11/3\n")


def test_fit_cor34_fourth_refits_the_published_constant(capsys):
    # published 3; no ordering of the exponents (2,1,2,2) gives it
    code, out = run_cli(["fit", "--family", "cor34-4", "--primes", "11..120"], capsys)
    assert (code, out) == (0, "31/8\n")


def test_fit_unknown_family_lists_choices(capsys):
    code, err = run_cli_error(["fit", "--family", "huh", "--primes", "7..50"], capsys)
    assert code == 2
    assert "sun-s1" in err


def test_fit_insufficient_primes(capsys):
    code, _ = run_cli_error(["fit", "--family", "sun-s1", "--primes", "5,7"], capsys)
    assert code == 2


def test_fit_at_a_vanishing_bernoulli_number_names_the_zero(capsys):
    # B_p has an odd index, so it is 0 mod p at every prime: no pole.
    code, err = run_cli_error(
        ["fit", "--family", "sun-s1", "--w", "0", "--primes", "7..50"], capsys
    )
    assert code == 2
    assert "(7, 'bernoulli-zero')" in err and "bernoulli-pole" not in err


# --- plumbing --------------------------------------------------------------


def test_parse_primes():
    assert parse_primes("2..12") == [3, 5, 7, 11]
    assert parse_primes("7,11") == [7, 11]
    assert parse_primes(" 7 , 11 ") == [7, 11]
    assert parse_primes("7,,11") == [7, 11]  # blank entries are ignored
    for bad in ("", "9", "4", "2", "5..3", "a..b"):
        with pytest.raises(ValueError):
            parse_primes(bad)


def test_huge_prime_range_is_a_usage_error(monkeypatch, capsys):
    # A range past the limit is refused before the sieve, whose memory
    # grows with the top of the range.
    def no_sieve(lo, hi):
        raise AssertionError(f"sieved {lo}..{hi}")

    monkeypatch.setattr(cli, "primes_in_range", no_sieve)
    with pytest.raises(ValueError, match=f"past the limit {MAX_PRIME}"):
        parse_primes("3..1000000000000")
    for argv in (
        ["scan", "--check", "cor-sun-modp", "--primes", "100000000..100000100"],
        ["fit", "--family", "sun-s1", "--primes", "7..1000000000000"],
        ["identity", "--thm", "3.1", "--at-primes", f"3..{MAX_PRIME + 1}"],
    ):
        code, err = run_cli_error(argv, capsys)
        assert code == 2 and f"past the limit {MAX_PRIME}" in err


def test_parser_top_level():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert build_parser().prog == "mhslab"


def test_module_entry_point():
    # The child does not read pytest's pythonpath setting: put the source
    # directory this package was imported from on its PYTHONPATH.
    src = str(Path(mhslab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mhslab", "bernoulli", "--n", "10"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "5/66\n"
