"""Checks on each operation's output against the generator's facts.

A check returns a list of problems; an empty list means the output holds.
Every radius comparison is made by exact integer cross-powers (``gen.rcmp``),
never through ``ckspec``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from gen import Op, abs2, rcmp, rmax

ZERO = (Fraction(0), 1)
EXPECTED_HORIZON = 10_000  # the CLI default; IN windows are certified there


def _radius(triple):
    n, d, p = triple
    return (Fraction(n, d), p)


def _set_radii(s: dict) -> list:
    """Every modulus a report set reaches the top of: annulus bounds, points
    and root sets."""
    out = [_radius(hi) for _, hi in s["annuli"]]
    out += [(abs2((Fraction(a, b), Fraction(c, d))), 1) for a, b, c, d in s["points"]]
    out += [(abs2((Fraction(a, b), Fraction(c, d))), p) for a, b, c, d, p in s["root_sets"]]
    return out


def _in_annulus(r, s: dict) -> bool:
    return any(rcmp(_radius(lo), r) <= 0 <= rcmp(_radius(hi), r)
               for lo, hi in s["annuli"])


def check_report(op: Op, rep: dict) -> list[str]:
    """Properties every analyze report must have for the op's model."""
    problems = []
    radii = [c.radius for c in op.cycles] + [ZERO]
    got = [_radius(t) for t in rep["critical_radii"]]
    distinct = []
    for r in radii:
        if not any(rcmp(r, d) == 0 for d in distinct):
            distinct.append(r)
    if len(got) != len(distinct) or not all(
            any(rcmp(g, r) == 0 for r in distinct) for g in got):
        problems.append("critical radii differ from {0} and the cycle radii")

    outer = rmax(_set_radii(rep["sigma"]))
    if outer is None or rcmp(outer, op.spectral_radius) != 0:
        problems.append("outer radius of sigma is not the spectral radius")

    sigma_l = rep["sigma_l"]
    bare = [c for c in op.cycles if c.bare]
    for a, b, c, d, p in sigma_l["root_sets"]:
        w = (Fraction(a, b), Fraction(c, d))
        if not any(cyc.product == w and cyc.period == p for cyc in bare):
            problems.append(f"root set ({w}, {p}) in sigma_L is no bare cycle's")
    listed = _set_radii({"annuli": [], "points": sigma_l["points"],
                         "root_sets": sigma_l["root_sets"]})
    for cyc in bare:
        r = cyc.radius
        if _in_annulus(r, sigma_l):
            continue
        if not any(rcmp(r, q) == 0 for q in listed):
            problems.append(f"bare cycle {cyc.id} outside the annuli has no root set")

    tops = [rmax(_set_radii(rep[k])) for k in
            ("sigma_1", "sigma_2", "sigma_2_prime", "sigma_3", "sigma_4", "sigma_5")]
    if None in tops or any(rcmp(t, tops[0]) != 0 for t in tops[1:]):
        problems.append("sigma_1 .. sigma_5 do not share one outer radius")
    return problems


def check_certificate(op: Op, cert: dict) -> list[str]:
    problems = []
    want = op.expect
    if cert.get("pass") is not True:
        problems.append("certificate did not pass")
    if cert.get("kind") != want["kind"]:
        problems.append(f"kind {cert.get('kind')} != drawn {want['kind']}")
    if "routes" in want:
        details = cert.get("details", {})
        got = {label: entry.get("route") for label, entry in details.items()}
        if got != want["routes"]:
            problems.append(f"routes {got} != drawn {want['routes']}")
    if want["kind"].startswith("IN_"):
        ratio = cert.get("residual_ratio")
        if ratio is None or ratio > 5 / math.sqrt(EXPECTED_HORIZON):
            problems.append(f"residual ratio {ratio} above 5/sqrt(horizon)")
    return problems


def check(op: Op, code: int, out: str, err: str) -> list[str]:
    """Check one CLI call: its exit code, its stderr and its JSON output."""
    if code != 0:
        return [f"exit code {code}: {err.strip()[-200:]}"]
    if "inconsistency" in err:
        return ["self-check reported a discrepancy"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as e:
        return [f"output is not JSON: {e}"]
    if op.workload == "certify":
        return check_certificate(op, doc)
    return check_report(op, doc)
