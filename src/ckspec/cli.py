"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 internal inconsistency,
3 certificate failure.  A standard output closed by its reader ends the
call quietly with 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from . import fixtures
from .exact import QPoint, RationalComplex
from .model import ModelError, load_model
from .oracle import (DEFAULT_HORIZON, Certificate, MarginNotReached,
                     NoEligibleOrbit, chain_defect_dim, chain_kernel_dim,
                     in_certificate, out_certificate)
from .spectra import (InternalInconsistency, essential_spectra, fmt_dim,
                      fredholm_data, self_check)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONSISTENT = 2
EXIT_CERTIFICATE = 3


def _parse_lambda(text: str) -> QPoint:
    try:
        re_s, im_s = text.split(",")
        return QPoint(RationalComplex(Fraction(re_s), Fraction(im_s)))
    except (ValueError, ZeroDivisionError) as e:
        raise ModelError(f"bad --lambda {text!r} (expect reNum/reDen,imNum/imDen): {e}")


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    report = essential_spectra(model)
    if args.self_check:
        problems = self_check(model, report)
        if problems:
            for p in problems:
                print(f"inconsistency: {p}", file=sys.stderr)
            raise InternalInconsistency(f"{len(problems)} self-check failures")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    elif args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(report.to_svg())
        print(f"wrote {args.svg}")
    else:
        print(report.to_text())
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.horizon < 4:
        raise ModelError(f"--horizon must be at least 4, not {args.horizon}")
    model = load_model(args.model)
    lam = _parse_lambda(args.lam)
    report = essential_spectra(model)
    # sigma_2' lies within sigma_2, so every point of the semi-Fredholm
    # spectrum gets an upper certificate
    if report.sigma_2.member(lam):
        try:
            cert = in_certificate(model, lam, "upper", horizon=args.horizon)
        except OverflowError as e:
            # the bump is evaluated in floating point
            raise NoEligibleOrbit(f"lambda or a weight of the witness lies "
                                  f"beyond the float range ({e})") from e
    elif not report.sigma.member(lam):
        cert = out_certificate(model, lam, horizon=args.horizon)
    else:
        # inside the spectrum but semi-Fredholm: report the exact chain data
        fd = fredholm_data(model, lam)
        cert = Certificate(
            "CHAIN_DIMS", str(lam), args.horizon, True,
            details={
                "in_sigma": True,
                "dim_ker": fmt_dim(chain_kernel_dim(model, lam)),
                "defect": fmt_dim(chain_defect_dim(model, lam)),
                "index": fd.index,
            })
    print(json.dumps(cert.to_json(), indent=2))
    return EXIT_OK if cert.passed else EXIT_CERTIFICATE


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixtures.NAMES:
            print(name)
        return EXIT_OK
    if args.name not in fixtures.NAMES:
        names = ", ".join(fixtures.NAMES)
        print(f"error: fixtures emit needs one of: {names}", file=sys.stderr)
        return EXIT_INPUT
    print(fixtures.fixture_text(args.name), end="")
    return EXIT_OK


@cache  # parse_args leaves the parser as it was, so a process needs one
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckspec",
        description="Exact spectra of weighted composition operators on "
                    "finitely presented compact orbit systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute the spectral report")
    pa.add_argument("model", help="model JSON file")
    fmt = pa.add_mutually_exclusive_group()
    fmt.add_argument("--text", action="store_true", help="text report (default)")
    fmt.add_argument("--json", action="store_true", help="JSON report")
    fmt.add_argument("--svg", metavar="OUT", help="write an SVG plot")
    pa.add_argument("--self-check", action="store_true",
                    help="re-verify every region pointwise against the "
                         "chain oracle (exit 2 on disagreement)")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("certify", help="emit a numerical certificate")
    pc.add_argument("model", help="model JSON file")
    pc.add_argument("--lambda", dest="lam", required=True,
                    metavar="a/b,c/d", help="spectral parameter")
    pc.add_argument("--horizon", type=int, default=DEFAULT_HORIZON,
                    help="truncation horizon (default %(default)s)")
    pc.set_defaults(func=cmd_certify)

    pf = sub.add_parser("fixtures", help="list or emit built-in fixtures")
    pf.add_argument("action", choices=["list", "emit"])
    pf.add_argument("name", nargs="?")
    pf.set_defaults(func=cmd_fixtures)
    return ap


def _join_lambda(argv: list[str]) -> list[str]:
    """Join ``--lambda -9/8,0`` into ``--lambda=-9/8,0``: argparse takes a
    separate value that starts with '-' (other than a plain negative number)
    for an option and would reject the negative real part."""
    out = []
    for tok in argv:
        if out and out[-1] == "--lambda" and re.match(r"-[0-9./]", tok):
            out[-1] = f"--lambda={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_lambda(argv))
    except SystemExit as e:
        # argparse exits 2 on a usage error, but 2 means an internal
        # inconsistency here; --help still exits 0
        if e.code:
            return EXIT_INPUT
        raise
    # weights may have any number of digits: lift the cap that Python 3.10.7+
    # puts on int <-> str conversion while this call parses and prints
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of standard output has gone, which is no input error;
        # point stdout at devnull so the interpreter's final flush succeeds
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ModelError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInconsistency as e:
        print(f"internal inconsistency: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (MarginNotReached, NoEligibleOrbit) as e:
        print(f"certificate failure: {e}", file=sys.stderr)
        return EXIT_CERTIFICATE
    finally:
        if capped:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
