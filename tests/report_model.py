"""The report payloads built field by field as dicts: the reference that
each report's ``to_dict`` is compared with.  ``json.dumps(payload,
indent=2)`` of one is the text the CLI's one JSON writer must print.
"""

from __future__ import annotations

from brieskorn.curve import InvariantReport
from brieskorn.poly import format_fraction
from brieskorn.suspension import DirectCheck, IsolatedGerm, SuspensionReport

from test_ab_module import reference_record


def invariant_payload(report: InvariantReport) -> dict:
    # each basis class is printed once: a_action lists the same objects
    text = {id(p): str(p) for p in report.basis}
    basis_mu, basis_nu = ([text[id(p)] for p in b] for b in (report.basis_mu, report.basis_nu))
    return {
        "f": report.f,
        "variables": list(report.variables),
        "mu": report.mu,
        "nu": report.nu,
        "gamma": report.gamma,
        "delta": report.delta,
        "rank": report.rank,
        "betti_n": report.betti_n,
        "basis": basis_mu + basis_nu,
        "basis_mu": basis_mu,
        "basis_nu": basis_nu,
        "a_action": None
        if report.a_action is None
        else [
            {"monomial": text.get(id(p)) or str(p), "coefficient": format_fraction(c)}
            for p, c in report.a_action
        ],
        "weights": None
        if report.weights is None
        else {
            "weights": [format_fraction(w) for w in report.weights.weights],
            "total_degree": format_fraction(report.weights.total_degree),
        },
        "assumptions": {**report.assumptions._asdict(), "exact": report.assumptions.exact},
    }


def germ_payload(germ: IsolatedGerm) -> dict:
    # each basis class is printed once: a_action lists the same objects
    text = {id(m): str(m) for m in germ.basis}
    return {
        "f": germ.f,
        "variables": list(germ.variables),
        "milnor": germ.milnor,
        "basis": [text[id(m)] for m in germ.basis],
        "weights": None
        if germ.weights is None
        else [format_fraction(w) for w in germ.weights.weights],
        "a_action": None
        if germ.a_action is None
        else [
            {"monomial": text[id(m)], "coefficient": format_fraction(c)}
            for m, c in germ.a_action
        ],
    }


def suspension_payload(report: SuspensionReport) -> dict:
    """The payload with the (a,b)-module as its record (``reference_record``,
    read off the module's view)."""
    isolated, curve = germ_payload(report.germ), invariant_payload(report.curve_report)
    germ_text = {id(a): text for a, text in zip(report.germ.basis, isolated["basis"])}
    curve_text = {id(b): text for b, text in zip(report.curve_report.basis, curve["basis"])}
    return {
        "F": f"({report.germ.f}) + ({report.curve_report.f})",
        "mu": report.mu,
        "nu": report.nu,
        "rank": report.rank,
        "basis_pairs": [
            {"isolated": germ_text[id(a)], "curve": curve_text[id(b)]}
            for a, b in report.basis_pairs
        ],
        "ab_model": None if report.ab_model is None else reference_record(report.ab_model),
        "provenance": list(report.provenance),
        "isolated": isolated,
        "curve": curve,
    }


def direct_payload(check: DirectCheck) -> dict:
    return check._asdict()
