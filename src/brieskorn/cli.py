"""Command-line front end.

Subcommands: ``invariants`` (plane-curve pipeline), ``suspend``
(Thom-Sebastiani transport), and ``abmod`` (operations on serialized
truncated (a,b)-modules).  Exit codes: 0 success, 1 invalid input,
2 inconclusive at the configured caps.

Output is deterministic: identical inputs and configuration produce
byte-identical reports (timing is only emitted on request).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import __version__
from .ab_module import (
    DEFAULT_TRUNC_ORDER,
    ABModule,
    check_commutation,
    factorial_identity_holds,
    is_regular,
    is_simple_pole,
    tensor,
)
from .curve import FactoredCurve, invariants, torsion_free_witness
from .errors import BrieskornError, InconclusiveError, InputError, ParseError
from .local_algebra import DEFAULT_JET_CAP
from .poly import Poly, Scalar, parse_fraction, parse_polynomial
from .suspension import milnor_isolated, suspend, verify_suspension_direct

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2


def _parse_variables(text: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names:
        raise InputError("no variables given")
    return names


def _parse_weights(text: Optional[str]) -> Optional[tuple[Scalar, ...]]:
    if text is None:
        return None
    return tuple(parse_fraction(part) for part in text.split(","))


def _parse_factors(text: str, variables: tuple[str, ...]) -> list[tuple[Poly, int]]:
    factors = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise InputError(
                f"factor {piece!r} must have the form <polynomial>:<multiplicity>"
            )
        expr, mult_text = piece.rsplit(":", 1)
        try:
            mult = int(mult_text)
        except ValueError as exc:
            raise InputError(f"multiplicity {mult_text!r} is not an integer") from exc
        factors.append((parse_polynomial(expr, variables), mult))
    return factors


def _infer_variables(text: str) -> tuple[str, ...]:
    names: list[str] = []
    i = 0
    while i < len(text):
        if text[i].isalpha() or text[i] == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in names:
                names.append(name)
            i = j
        else:
            i += 1
    return tuple(sorted(names))


def _envelope(command: str, input_echo: dict, report: dict, args, start: float) -> dict:
    """The report with the run settings it was computed under; errors go to
    stderr only, so ``error`` is always null."""
    elapsed = time.perf_counter() - start if args.timing else None
    return {
        "tool": {"name": "brieskorn", "version": __version__, "command": command},
        "config": {"jet_cap": args.jet_cap, "trunc_order": args.trunc, "seed": args.seed},
        "input": input_echo,
        "report": report,
        "warnings": [],
        "error": None,
        "timing": None if elapsed is None else {"seconds": round(elapsed, 3)},
    }


def _json(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` for str-keyed dicts,
    lists, tuples, str, int, bool, None and finite floats.  The stdlib's C
    encoder serves no indent, and its pure-Python one is slower than this."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _emit(envelope: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(_json(envelope))
        out.write("\n")
        return
    out.write(f"brieskorn {envelope['tool']['command']}\n")
    for key, value in envelope["input"].items():
        out.write(f"  input {key}: {value}\n")
    _emit_report_text(envelope["report"], out)
    if envelope["timing"] is not None:
        out.write(f"  time: {envelope['timing']['seconds']}s\n")


def _emit_report_text(report: dict, out, indent: str = "  ") -> None:
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            out.write(f"{indent}{key}:\n")
            for item in value:
                rendered = ", ".join(f"{k}={v}" for k, v in item.items())
                out.write(f"{indent}  {rendered}\n")
        elif isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            for k, v in value.items():
                out.write(f"{indent}  {k}: {v}\n")
        else:
            out.write(f"{indent}{key}: {value}\n")


def _curve_from_args(args) -> tuple[FactoredCurve, tuple[str, ...]]:
    variables = _parse_variables(args.vars)
    if len(variables) != 2:
        raise InputError("curve commands need exactly two variables")
    factors = _parse_factors(args.factors, variables)
    residual = (
        parse_polynomial(args.residual, variables) if args.residual else None
    )
    curve = FactoredCurve.of(variables, factors, residual)
    if args.f:
        expected = parse_polynomial(args.f, variables)
        got = curve.expand()
        if expected != got:
            raise InputError(
                f"factored-form mismatch: factors expand to {got} "
                f"but --f gave {expected}"
            )
    return curve, variables


def _cmd_invariants(args, out) -> int:
    curve, variables = _curve_from_args(args)
    weights = _parse_weights(args.weights)
    echo = {
        "f": str(curve.expand()),
        "factored": str(curve),
        "variables": ",".join(variables),
        "weights": args.weights or "",
    }
    start = time.perf_counter()
    report = invariants(curve, weights, jet_cap=args.jet_cap)
    report_dict = report.to_dict()
    if args.check_witness:
        order = max(curve.expand().total_degree() + 2, 12)
        witness = torsion_free_witness(curve, min(order, args.jet_cap))
        report_dict["torsion_free_witness"] = {
            "holds": witness,
            "jet_order": min(order, args.jet_cap),
        }
    _emit(_envelope("invariants", echo, report_dict, args, start), args.format, out)
    return EXIT_OK


def _cmd_suspend(args, out) -> int:
    curve, variables = _curve_from_args(args)
    weights = _parse_weights(args.weights)
    isolated_vars = (
        _parse_variables(args.isolated_vars)
        if args.isolated_vars
        else _infer_variables(args.isolated)
    )
    if not isolated_vars:
        raise InputError("could not infer variables of the isolated germ")
    germ_poly = parse_polynomial(args.isolated, isolated_vars)
    echo = {
        "isolated": str(germ_poly),
        "isolated_variables": ",".join(isolated_vars),
        "g": str(curve.expand()),
        "factored": str(curve),
        "variables": ",".join(variables),
        "weights": args.weights or "",
    }
    start = time.perf_counter()
    germ = milnor_isolated(germ_poly)
    curve_report = invariants(curve, weights, jet_cap=args.jet_cap)
    result = suspend(germ, curve_report, trunc_order=args.trunc)
    report_dict = result.to_dict()
    report_dict["isolated"] = germ.to_dict()
    report_dict["curve"] = curve_report.to_dict()
    if args.verify_direct:
        check = verify_suspension_direct(germ, curve, curve_report)
        report_dict["direct_check"] = check.to_dict()
        if not check.agrees:
            raise InputError(
                "direct verification disagrees with the transported Milnor number: "
                f"{check.mu_direct} != {check.mu_transported}"
            )
    _emit(_envelope("suspend", echo, report_dict, args, start), args.format, out)
    return EXIT_OK


def _load_module(path: str) -> ABModule:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read module file {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError(f"module file {path} is not JSON: {exc}") from exc
    return ABModule.from_record(record)


def _cmd_abmod(args, out) -> int:
    if args.abmod_command == "identity":
        holds = factorial_identity_holds(args.n)
        out.write("OK\n" if holds else "FAILED\n")
        return EXIT_OK if holds else EXIT_INVALID
    if args.abmod_command == "tensor":
        left = _load_module(args.left)
        right = _load_module(args.right)
        product = tensor(left, right)
        record = _json(product.to_record()) + "\n"
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(record)
            except OSError as exc:
                raise InputError(
                    f"cannot write module file {args.output}: {exc.strerror}"
                ) from exc
            out.write(f"wrote rank-{product.rank} module to {args.output}\n")
        else:
            out.write(record)
        return EXIT_OK
    if args.abmod_command == "check":
        module = _load_module(args.module)
        flags = {
            "rank": module.rank,
            "trunc_order": module.trunc_order,
            "commutation": check_commutation(module),
            "simple_pole": is_simple_pole(module),
        }
        for k in args.k or [1, 2]:
            flags[f"regular_k{k}"] = is_regular(module, k)
        out.write(_json(flags) + "\n")
        return EXIT_OK
    if args.count < 1:  # selftest
        raise InputError(f"selftest needs --count >= 1, got {args.count}")
    return _abmod_selftest(args.count, args.seed, args.trunc, out)


def _abmod_selftest(count: int, seed: int, trunc_order: int, out) -> int:
    """Randomized tensor-algebra properties, deterministic per seed."""
    rng = random.Random(seed)

    def random_simple_pole() -> ABModule:
        rank = rng.randint(1, 3)
        matrix = [
            [
                [0] + [rng.randint(-3, 3) for _ in range(3)]
                for _ in range(rank)
            ]
            for _ in range(rank)
        ]
        return ABModule(rank, trunc_order, matrix)

    failures = 0
    for i in range(count):
        left = random_simple_pole()
        right = random_simple_pole()
        product = tensor(left, right)
        ok = (
            product.rank == left.rank * right.rank
            and check_commutation(product)
            and is_simple_pole(product)
        )
        if not ok:
            failures += 1
            out.write(f"selftest case {i}: FAILED\n")
    out.write(
        f"selftest: {count - failures}/{count} randomized tensor checks passed "
        f"(seed {seed})\n"
    )
    return EXIT_OK if failures == 0 else EXIT_INVALID


def _at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description=(
            "Exact invariants of plane-curve singularities and their "
            "suspensions: mu, nu, module rank, quotient basis, a-action, "
            "plus a truncated (a,b)-module algebra."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    # each subcommand takes only the settings it reads
    module_settings = argparse.ArgumentParser(add_help=False)
    module_settings.add_argument(
        "--trunc", type=_at_least(2), default=DEFAULT_TRUNC_ORDER, help="b-truncation order"
    )
    module_settings.add_argument("--seed", type=int, default=0)
    report_settings = argparse.ArgumentParser(add_help=False, parents=[module_settings])
    report_settings.add_argument(
        "--jet-cap", type=_at_least(1), default=DEFAULT_JET_CAP, help="bound of the nu scan"
    )
    report_settings.add_argument("--format", choices=("text", "json"), default="text")
    report_settings.add_argument(
        "--timing", action="store_true", help="include timing in the envelope"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve_common = argparse.ArgumentParser(add_help=False)
    curve_common.add_argument(
        "--factors",
        required=True,
        help="comma-separated <polynomial>:<multiplicity> pairs, e.g. 'x:3'",
    )
    curve_common.add_argument("--residual", default="", help="residual factor psi")
    curve_common.add_argument("--vars", default="x,y", help="curve variables")
    curve_common.add_argument("--weights", default=None, help="weight certificate")
    curve_common.add_argument(
        "--f", default="", help="expected expansion, checked against the factors"
    )

    inv = sub.add_parser(
        "invariants", parents=[report_settings, curve_common], help="plane-curve invariants"
    )
    inv.add_argument(
        "--check-witness",
        action="store_true",
        help="also run the torsion-free witness check",
    )

    susp = sub.add_parser(
        "suspend", parents=[report_settings, curve_common], help="suspension transport"
    )
    susp.add_argument("--isolated", required=True, help="isolated germ expression")
    susp.add_argument("--isolated-vars", default="", help="its variables")
    susp.add_argument(
        "--verify-direct",
        action="store_true",
        help="cross-check mu in the joined ring",
    )

    abmod = sub.add_parser("abmod", help="(a,b)-module operations")
    absub = abmod.add_subparsers(dest="abmod_command", required=True)
    identity = absub.add_parser("identity", help="factorial b-power operator identity")
    identity.add_argument("--n", type=int, required=True)
    tensor_cmd = absub.add_parser("tensor", help="tensor two serialized modules")
    tensor_cmd.add_argument("left")
    tensor_cmd.add_argument("right")
    tensor_cmd.add_argument("-o", "--output", default="")
    check = absub.add_parser("check", help="commutation/simple-pole/regularity flags")
    check.add_argument("module")
    check.add_argument("--k", type=int, action="append", default=None)
    selftest = absub.add_parser(
        "selftest", parents=[module_settings], help="randomized tensor properties"
    )
    selftest.add_argument("--count", type=int, default=25)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing reads it
    without changing it, so every call can share it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version exit 0, usage errors 2
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if args.command == "invariants":
            return _cmd_invariants(args, out)
        if args.command == "suspend":
            return _cmd_suspend(args, out)
        return _cmd_abmod(args, out)
    except InconclusiveError as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except (InputError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except BrieskornError as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
