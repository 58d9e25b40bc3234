"""Command-line front end.

Exit codes: 0 when everything evaluated/passed, 1 when a scan or identity
suite reported failures (or a fit came back unstable), 2 for usage errors.
A usage error is one line on stderr, never a traceback.  argparse reports
its own; main is the one place where a library ValueError or
ArithmeticError, the library's way of refusing an input, becomes one.
"""

from __future__ import annotations

import argparse
import sys

from .bernoulli import DEFAULT_CAP, bernoulli_exact, bernoulli_mod, check_pole
from .compositions import parse_composition, stuffle
from .congruences import (
    STATUS_FAIL,
    STATUS_PASS,
    fit_coefficient,
    fit_families,
    reports_to_csv,
    reports_to_json,
    run_scan,
)
from .exactnum import (
    EXPONENTS,
    MAX_PRIME,
    check_ring,
    is_odd_prime,
    primes_in_range,
    rational_to_residue,
)
from .identities import check_probes, probe_thm31_random, run_thm21_suite, run_thm31_suite
from .mhs import EXACT_N_CAP, mhs_exact, mhs_mod, weighted_sum2, weighted_sum3

__all__ = ["build_parser", "main", "parse_primes"]


def parse_primes(spec: str, limit: int = MAX_PRIME) -> list[int]:
    """Expand a prime spec: either an inclusive range "a..b" or a comma
    list "5,7,11" of odd primes.  Ranges silently drop anything below 3
    and may not reach past MAX_PRIME, nor past the command's own limit;
    explicit lists are validated entry by entry."""
    spec = spec.strip()
    if ".." in spec:
        lo_text, _, hi_text = spec.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"bad prime range {spec!r}; expected a..b") from None
        # Both refused before the sieve, whose memory grows with hi.
        if hi > MAX_PRIME:
            raise ValueError(f"prime range {spec!r} goes past the limit {MAX_PRIME} for O(p) work")
        if hi > limit:
            raise ValueError(f"prime range {spec!r} goes past the limit {limit} of this command")
        primes = [p for p in primes_in_range(lo, hi) if p >= 3]
    else:
        primes = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                v = int(token)
            except ValueError:
                raise ValueError(f"bad prime {token!r}") from None
            if not is_odd_prime(v):
                raise ValueError(f"{v} is not an odd prime")
            primes.append(v)
    if not primes:
        raise ValueError(f"no odd primes selected by {spec!r}")
    return sorted(set(primes))


def _given(args: argparse.Namespace, *dests: str) -> dict:
    """The named options the user gave, as keyword arguments, so that each
    one left out takes the library function's own default."""
    return {d: getattr(args, d) for d in dests if getattr(args, d) is not None}


def _reject_ignored(args: argparse.Namespace, why: str, *dests: str) -> None:
    """Exit 2 naming each given option that the chosen mode would ignore."""
    given = [f"--{d.replace('_', '-')}" for d in _given(args, *dests)]
    if given:
        args.parser.error(f"{', '.join(given)}: no effect {why}")


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.prime is None:
        _reject_ignored(args, "without --prime", "e")
    n, p, e = args.n, args.prime, args.e or 1
    if args.mhs is not None:
        parts = parse_composition(args.mhs)
        out = mhs_mod(parts, p, e) if n is None else mhs_exact(parts, n)
    else:
        parts = parse_composition(args.wsum)
        if len(parts) not in (3, 4):
            raise ValueError("--wsum needs three or four exponents")
        out = (weighted_sum2 if len(parts) == 3 else weighted_sum3)(*parts, n, p=p, e=e)
    _print_unlimited(out)
    return 0


def _print_unlimited(value) -> None:
    """print(value), lifting the interpreter's limit on int-to-str digits
    (Python 3.11+) for this one output: the numerator of an exact
    H(1,2,1; 5000) has about 5,000 digits, past the default 4,300."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        print(value)
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        print(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_stuffle(args: argparse.Namespace) -> int:
    terms = stuffle(parse_composition(args.a), parse_composition(args.b))
    print(" + ".join(str(c) if k == 1 else f"{k}*{c}" for c, k in terms))
    return 0


def _exact_bernoulli_is_cheaper(n: int, p: int, e: int) -> bool:
    """Whether B_n mod p^e costs less as the exact value reduced than from
    bernoulli_mod's power sums, in a fresh process (a cold exact cache).

    Fitted to fresh-process runs (2 CPUs, Python 3.11): the exact B_0..B_n
    took 0.025 s at n = 500, 0.19 s at n = 1000 and 1.9 s at n = 2000,
    about 1.1e-9 * n^2.8 s; bernoulli_mod(2000, p, e) took 0.0007 s at
    p = 1009, 0.006 s at p = 10007, 0.11 s at p = 100003 and 0.016 s at
    p = 10007 with e = 3, about 1e-6 * e * p s.  The exact path is the only
    one past MAX_PRIME, and the power sums the only one past DEFAULT_CAP.
    """
    return 0 <= n <= DEFAULT_CAP and (p > MAX_PRIME or 1.1e-3 * n**2.8 < e * p)


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.prime is None:
        _reject_ignored(args, "without --prime", "e")
    n, p, e = args.n, args.prime, args.e or 1
    if p is None:
        print(bernoulli_exact(n))
    elif not _exact_bernoulli_is_cheaper(n, p, e):
        print(bernoulli_mod(n, p, e))
    else:
        check_ring(p, e)
        check_pole(n, p)
        print(rational_to_residue(bernoulli_exact(n), p, e))
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    if args.thm == "2.1":
        _reject_ignored(args, "with --thm 2.1", "at_primes", "probes", "seed")
    elif not args.probes:
        _reject_ignored(args, "without --probes", "nmax", "seed")
    if args.thm == "2.1":
        reports = [run_thm21_suite(**_given(args, "smax", "nmax"))]
    else:
        # The probes share the grid's smax; their own library default is 4.
        smax = args.smax if args.smax is not None else 3
        grid = {}
        if args.at_primes:
            # n = p - 1 is evaluated exactly, so p may not pass EXACT_N_CAP + 1.
            primes = parse_primes(args.at_primes, limit=EXACT_N_CAP + 1)
            grid["nvalues"] = tuple(p - 1 for p in primes)
        if args.probes:
            # Refuse bad probes before the grid runs; the grid still prints first.
            check_probes(args.probes, **_given(args, "nmax"))
        reports = [run_thm31_suite(smax=smax, **grid)]
        if args.probes:
            probe = _given(args, "nmax", "seed")
            reports.append(probe_thm31_random(args.probes, smax=smax, **probe))
    total_failures = 0
    for rep in reports:
        total_failures += len(rep.failures)
        print(f"{rep.identity}: {rep.points} instances, {len(rep.failures)} failures")
        for inst in rep.failures[:5]:
            print(
                f"  exponents={inst.exponents} n={inst.n}"
                f" lhs={inst.lhs} rhs={inst.rhs}"
            )
    return 1 if total_failures else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    reports = run_scan(args.check, parse_primes(args.primes), jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(reports_to_csv(reports))
    elif args.format == "json":
        sys.stdout.write(reports_to_json(reports))
    else:
        tally = {"pass": 0, "fail": 0, "skipped": 0}
        for r in reports:
            tally["fail" if r.status == STATUS_FAIL else
                  "pass" if r.status == STATUS_PASS else "skipped"] += 1
            line = f"{r.check_id}  p={r.p}  {r.status}"
            if r.status == STATUS_FAIL:
                line += f"  lhs={r.lhs}  rhs={r.rhs}"
            if r.note:
                line += f"  [{r.note}]"
            print(line)
        print(
            f"{len(reports)} primes: {tally['pass']} pass,"
            f" {tally['fail']} fail, {tally['skipped']} skipped"
        )
    return 1 if any(r.status == STATUS_FAIL for r in reports) else 0


def _cmd_fit(args: argparse.Namespace) -> int:
    families = fit_families()
    fam = families.get(args.family)
    if fam is None:
        raise ValueError(f"unknown family {args.family!r}; known: {', '.join(sorted(families))}")
    # The member holds only from its own smallest prime, as in scans and refits;
    # the primes below it are named on stderr.
    least = fam.member.min_prime
    given = parse_primes(args.primes)
    primes = [p for p in given if p >= least]
    below = [str(p) for p in given if p < least]
    if below:
        print(
            f"{args.parser.prog}: skipped {', '.join(below)},"
            f" below the member's smallest prime {least}",
            file=sys.stderr,
        )
    result = fit_coefficient(fam.lhs, fam.w, primes, t=fam.t, e=fam.e)
    if result.skipped:
        skipped = ", ".join(f"{p} ({reason})" for p, reason in result.skipped)
        print(f"{args.parser.prog}: skipped {skipped}", file=sys.stderr)
    if result.coefficient is None:
        print("unstable")
        return 1
    print(result.coefficient)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhslab",
        description=(
            "Multiple harmonic sums: exact values, stuffle products, Bernoulli"
            " numbers, identity suites, congruence scans and coefficient fits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    ev = sub.add_parser("eval", help="evaluate a sum exactly or in Z/p^e")
    kind = ev.add_mutually_exclusive_group(required=True)
    kind.add_argument("--mhs", metavar="PARTS", help='composition, e.g. "(1,2)"')
    kind.add_argument(
        "--wsum", metavar="S1,S2,S3[,S4]", help="sum of H^(s1) H^(s3) [H^(s4)] / j^s2"
    )
    at = ev.add_mutually_exclusive_group(required=True)
    at.add_argument("--n", type=int, help="upper limit; exact rational output")
    at.add_argument("--prime", type=int, help="odd prime; evaluates at n = p-1 in Z/p^e")
    ev.add_argument("--e", type=int, choices=EXPONENTS, help="with --prime; default 1")
    ev.set_defaults(func=_cmd_eval, parser=ev)

    st = sub.add_parser("stuffle", help="expand a product of two sums")
    st.add_argument("--a", required=True, metavar="PARTS")
    st.add_argument("--b", required=True, metavar="PARTS")
    st.set_defaults(func=_cmd_stuffle, parser=st)

    be = sub.add_parser("bernoulli", help="Bernoulli number, exact or mod p^e")
    be.add_argument("--n", required=True, type=int)
    be.add_argument("--prime", type=int)
    be.add_argument("--e", type=int, choices=EXPONENTS, help="with --prime; default 1")
    be.set_defaults(func=_cmd_bernoulli, parser=be)

    idn = sub.add_parser("identity", help="verify a polynomial identity suite")
    idn.add_argument("--thm", required=True, choices=("2.1", "3.1"))
    idn.add_argument("--smax", type=int, help="largest exponent per slot")
    idn.add_argument("--nmax", type=int, help="largest n (2.1 grid / 3.1 probes)")
    idn.add_argument(
        "--at-primes",
        dest="at_primes",
        metavar="P1,P2,...",
        help="for 3.1: evaluate at n = p-1 for each listed prime",
    )
    idn.add_argument("--probes", type=int, help="extra random points for 3.1")
    idn.add_argument("--seed", type=int, help="seed of the 3.1 probes (default 1729)")
    idn.set_defaults(func=_cmd_identity, parser=idn)

    sc = sub.add_parser("scan", help="run a congruence check over primes")
    sc.add_argument("--check", required=True, metavar="CHECK_ID")
    sc.add_argument("--primes", required=True, metavar="A..B|P1,P2,...")
    sc.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sc.add_argument("--jobs", type=int, help="worker processes (default: CPU count)")
    sc.set_defaults(func=_cmd_scan, parser=sc)

    ft = sub.add_parser("fit", help="fit c in lhs = c p^t B_{p-w} across primes")
    ft.add_argument("--family", required=True)
    ft.add_argument("--primes", required=True, metavar="A..B|P1,P2,...")
    ft.set_defaults(func=_cmd_fit, parser=ft)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
