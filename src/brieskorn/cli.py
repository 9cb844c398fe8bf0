"""Command-line front end.

Subcommands: ``invariants`` (plane-curve pipeline), ``suspend``
(Thom-Sebastiani transport), and ``abmod`` (operations on serialized
truncated (a,b)-modules).  Exit codes: 0 success, 1 invalid input,
2 inconclusive at the configured caps, 141 when the reader closes stdout.

Output is deterministic: identical inputs and configuration produce
byte-identical reports (timing is only emitted on request).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
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
    factorial_identity_holds,
    is_regular,
    is_simple_pole,
    tensor,
)
from .curve import FactoredCurve, invariants, torsion_free_witness
from .errors import BrieskornError, InconclusiveError, InputError
from .local_algebra import DEFAULT_JET_CAP
from .poly import Poly, Scalar, parse_fraction, parse_polynomial
from .suspension import milnor_isolated, suspend, verify_suspension_direct

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONCLUSIVE = 2
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE: what a shell reports for a SIGPIPE death
MAX_REGULARITY_K = 32  # of abmod check --k: is_regular grows as (rank * k)^3


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


# each exact scalar type's writer but str's (encode_basestring_ascii, read at each call)
_LITERAL = {None: "null", True: "true", False: "false"}.__getitem__
_SCALARS = {int: int.__repr__, float: float.__repr__, bool: _LITERAL, type(None): _LITERAL}


def _json(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)`` for str-keyed dicts, lists,
    tuples, str, int, bool, None, finite floats and ABModules (their records,
    which they write).  The stdlib's C encoder serves no indent, and its
    pure-Python one is slower than this.  A container writes its scalar
    children itself, by their exact type, in a plain loop (a comprehension is
    one more call per container); only containers recurse."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        if kind is ABModule:
            return value.to_json(indent)
        return encode_basestring_ascii(value) if kind is str else _SCALARS[kind](value)
    text, inner, items = encode_basestring_ascii, indent + "  ", []
    if kind is dict:
        for k, v in value.items():
            t = type(v)
            item = text(v) if t is str else _SCALARS[t](v) if t in _SCALARS else _json(v, inner)
            items.append(f"{text(k)}: {item}")
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    for v in value:
        t = type(v)
        items.append(text(v) if t is str else _SCALARS[t](v) if t in _SCALARS else _json(v, inner))
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _emit(command: str, echo: dict, report: dict, args, start: float, out) -> None:
    """Print the ``report`` payload with the run settings it was computed
    under.  Errors go to stderr only, so ``error`` is always null."""
    elapsed = round(time.perf_counter() - start, 3) if args.timing else None
    if args.format == "text":
        out.write(f"brieskorn {command}\n")
        for key, value in echo.items():
            out.write(f"  input {key}: {value}\n")
        _emit_report_text(report, out)
        if elapsed is not None:
            out.write(f"  time: {elapsed}s\n")
        return
    envelope = {
        "tool": {"name": "brieskorn", "version": __version__, "command": command},
        "config": {"jet_cap": args.jet_cap, "trunc_order": args.trunc, "seed": args.seed},
        "input": echo,
        "report": report,
        "warnings": [],
        "error": None,
        "timing": None if elapsed is None else {"seconds": elapsed},
    }
    out.write(_json(envelope) + "\n")


def _emit_report_text(report: dict, out, indent: str = "  ") -> None:
    for key, value in report.items():
        if type(value) is ABModule:
            value = value.to_record()
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
    if args.f:  # against the factors as written: the curve's are made monic
        expected = parse_polynomial(args.f, variables)
        got = Poly.constant(variables, 1) if residual is None else residual
        for u, p in factors:
            got = got * u**p
        if expected != got:
            raise InputError(
                f"factored-form mismatch: factors expand to {got} "
                f"but --f gave {expected}"
            )
    return curve, variables


def _cmd_invariants(args, out) -> int:
    curve, variables = _curve_from_args(args)
    weights = _parse_weights(args.weights)
    start = time.perf_counter()
    report = invariants(curve, weights, jet_cap=args.jet_cap)
    echo = {
        "f": report.f,
        "factored": str(curve),
        "variables": ",".join(variables),
        "weights": args.weights or "",
    }
    payload = report.to_dict()
    if args.check_witness:
        order = min(max(curve.expand().total_degree() + 2, 12), args.jet_cap)
        witness = {"holds": torsion_free_witness(curve, order), "jet_order": order}
        payload["torsion_free_witness"] = witness
    _emit("invariants", echo, payload, args, start, out)
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
    start = time.perf_counter()
    germ = milnor_isolated(germ_poly)
    curve_report = invariants(curve, weights, jet_cap=args.jet_cap)
    echo = {
        "isolated": germ.f,
        "isolated_variables": ",".join(isolated_vars),
        "g": curve_report.f,
        "factored": str(curve),
        "variables": ",".join(variables),
        "weights": args.weights or "",
    }
    result = suspend(germ, curve_report, trunc_order=args.trunc)
    payload = result.to_dict()
    if args.verify_direct:
        check = verify_suspension_direct(germ, curve, curve_report)
        payload["direct_check"] = check.to_dict()
        if not check.agrees:
            raise InputError(
                "direct verification disagrees with the transported Milnor number: "
                f"{check.mu_direct} != {check.mu_transported}"
            )
    _emit("suspend", echo, payload, args, start, out)
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
        record = _json(product) + "\n"
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
            "commutation": True,  # a b - b a = b^2 holds by construction
            "simple_pole": is_simple_pole(module),
        }
        orders = args.k or [1, 2]
        for k, regular in zip(orders, is_regular(module, orders)):
            flags[f"regular_k{k}"] = regular
        out.write(_json(flags) + "\n")
        return EXIT_OK
    return _abmod_selftest(args.count, args.seed, args.trunc, out)


def _abmod_selftest(count: int, seed: int, trunc_order: int, out) -> int:
    """Randomized tensor-algebra properties, deterministic per seed: the
    rank of a tensor is the product of the ranks, a tensor of simple-pole
    modules has a simple pole, and tensor(F, E) is tensor(E, F) with the
    basis index i r_F + j moved to j r_E + i."""
    rng = random.Random(seed)

    def random_simple_pole() -> ABModule:
        # randrange(w) + low draws what randint(low, low + w - 1) draws, in one call
        rank = rng.randrange(3) + 1
        matrix = [
            [
                [0] + [rng.randrange(7) - 3 for _ in range(3)]
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
        swapped = tensor(right, left).numerators
        swap = [j * left.rank + i for i in range(left.rank) for j in range(right.rank)]
        ok = (
            product.rank == left.rank * right.rank
            and product.numerators == tuple(tuple(swapped[r][c] for c in swap) for r in swap)
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


def _at_least(low: int, most: Optional[int] = None):
    """An argparse type: an integer of at least ``low`` (and at most ``most``)."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
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
    # a subcommand takes no setting that it neither reads nor echoes
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
    inv.set_defaults(command="invariants")
    inv.add_argument(
        "--check-witness",
        action="store_true",
        help="also run the torsion-free witness check",
    )

    susp = sub.add_parser(
        "suspend", parents=[report_settings, curve_common], help="suspension transport"
    )
    susp.set_defaults(command="suspend")
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
    identity.add_argument("--n", type=_at_least(1), required=True)
    tensor_cmd = absub.add_parser("tensor", help="tensor two serialized modules")
    tensor_cmd.add_argument("left")
    tensor_cmd.add_argument("right")
    tensor_cmd.add_argument("-o", "--output", default="")
    check = absub.add_parser("check", help="commutation/simple-pole/regularity flags")
    check.add_argument("module")
    check.add_argument("--k", type=_at_least(1, MAX_REGULARITY_K), action="append", default=None)
    selftest = absub.add_parser(
        "selftest", parents=[module_settings], help="randomized tensor properties"
    )
    selftest.add_argument("--count", type=_at_least(1), default=25)
    for name, leaf in absub.choices.items():
        leaf.set_defaults(command="abmod", abmod_command=name)
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing reads it
    without changing it, so every call can share it."""
    return build_parser()


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers of ``parser`` by name; none for an innermost one."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` from the innermost subcommand parser that
    the leading words of ``argv`` name, as argparse's subparser action parses;
    any other call, or one that leaves a word over, gets the full parser's."""
    parser, rest = _parser(), list(sys.argv[1:] if argv is None else argv)
    choices = _subcommands(parser)
    while rest and rest[0] in choices:
        parser = choices[rest.pop(0)]
        choices = _subcommands(parser)
    if not choices:
        args, extra = parser.parse_known_args(rest)
        if not extra:
            return args
    return _parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        with contextlib.redirect_stdout(out):  # --help and --version text
            args = _parse(argv)
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
    except BrieskornError as exc:  # invalid input, a parse error included
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def entrypoint() -> None:  # console script
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: no invalid input, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        code = EXIT_CLOSED_STDOUT
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
