"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent vectors to nonzero exact
coefficients, together with an ordered tuple of variable names.  By
``exact_scalar``, a coefficient is an ``int`` when integral and a ``Fraction``
only for a real denominator.  Every operation is exact; no floating point is
ever involved.  Values are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Mapping, Optional, Sequence, Union

from .errors import InputError, ParseError

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def exact_scalar(value: Scalar) -> Scalar:
    """The one scalar rule: an int stays an int, an integral Fraction becomes
    its numerator and any other Fraction stays.  Anything else, a float or a
    bool included, raises TypeError."""
    kind = type(value)
    if kind is int:
        return value
    if kind is Fraction:
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {kind.__name__}")


def _exact_nonzero(terms: dict[Exponents, Scalar]) -> dict[Exponents, Scalar]:
    """The nonzero entries of an arithmetic result: an int as it is, any
    other value by ``exact_scalar``."""
    return {e: c if type(c) is int else exact_scalar(c) for e, c in terms.items() if c}


def _ring(variables: Sequence[str]) -> tuple[str, ...]:
    """The variable names as a tuple; InputError on a repeated name."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable names in {variables!r}")
    return variables


def _add_shifted(target: dict, scale: Scalar, terms: Mapping, shift: tuple[int, ...]) -> None:
    """target += scale * x^shift * (the polynomial with ``terms``), dropping
    zeros, in place; the keys are any integer tuples that add entrywise."""
    for e, c in terms.items():
        key = tuple(map(add, e, shift))
        acc = target.get(key, 0) + scale * c
        if acc:
            target[key] = acc
        else:
            del target[key]


def _times(left: dict, right: dict) -> dict:
    """The terms of the product of two term dicts, by ``_exact_nonzero``."""
    out: dict[Exponents, Scalar] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return _exact_nonzero(out)


def _power(terms: dict, exponent: int, one: Exponents) -> dict:
    """The terms of a term dict to a nonnegative power; ``one`` holds no variable."""
    if not exponent:
        return {one: 1}
    if len(terms) == 1:  # c x^e: scale the exponents
        [(e, c)] = terms.items()
        return {tuple(exponent * k for k in e): c**exponent}
    result = terms
    for _ in range(exponent - 1):
        result = _times(result, terms)
    return result


def listing_key(exponents: Exponents) -> tuple[int, ...]:
    """Order used for quotient-basis listings: plain lexicographic on the
    reversed exponent vector (last declared variable most significant)."""
    return tuple(reversed(exponents))


def graded_key(exponents: Exponents) -> tuple:
    """Total degree first, then ``listing_key``; drives greedy basis picks."""
    return (sum(exponents), tuple(reversed(exponents)))


def format_fraction(value: Scalar) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Scalar]):
        variables = _ring(variables)
        clean: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise InputError(
                    f"exponent vector {exps!r} does not match {len(variables)} variables"
                )
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps!r}")
            value = exact_scalar(coeff)
            if value != 0:
                acc = clean.get(exps)
                clean[exps] = value if acc is None else exact_scalar(acc + value)
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[Exponents, Scalar]) -> "Poly":
        """A Poly on an already clean ``terms`` (valid exponents, nonzero
        coefficients as ``exact_scalar`` leaves them), taken without a copy:
        the constructor of arithmetic results, whose inputs were validated
        when they were built."""
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> "Poly":
        variables = tuple(variables)
        return cls.monomial(variables, (0,) * len(variables), value)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = _ring(variables)
        if name not in variables:
            raise InputError(f"unknown variable {name!r} (ring has {variables})")
        return cls._trusted(variables, {tuple(int(v == name) for v in variables): 1})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exponents: Sequence[int], coefficient: Scalar = 1
    ) -> "Poly":
        variables, exps = _ring(variables), tuple(exponents)
        if type(coefficient) is not int or len(exps) != len(variables) or min(exps, default=0) < 0:
            return cls(variables, {exps: coefficient})  # validates, or raises
        return cls._trusted(variables, {exps: coefficient} if coefficient else {})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Scalar:
        return self.terms.get((0,) * len(self.variables), 0)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order(self) -> Optional[int]:
        """Minimum total degree of a term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exponents), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise InputError(
                f"mixed polynomial rings: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return Poly._trusted(self.variables, _exact_nonzero(out))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, (int, Fraction)):
            scalar = exact_scalar(other)
            if not scalar:
                return Poly._trusted(self.variables, {})
            return Poly._trusted(
                self.variables,
                {e: exact_scalar(c * scalar) for e, c in self.terms.items()},
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        return Poly._trusted(self.variables, _times(self.terms, other.terms))

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        one = (0,) * len(self.variables)
        return Poly._trusted(self.variables, _power(self.terms, exponent, one))

    def derivative(self, variable: str) -> "Poly":
        """Exact formal partial derivative."""
        if variable not in self.variables:
            raise InputError(f"unknown variable {variable!r} (ring has {self.variables})")
        idx = self.variables.index(variable)
        # distinct exponents stay distinct when one entry drops by 1
        out = {
            exps[:idx] + (exps[idx] - 1,) + exps[idx + 1 :]: coeff * exps[idx]
            for exps, coeff in self.terms.items()
            if exps[idx]
        }
        return Poly._trusted(self.variables, _exact_nonzero(out))

    def substitute(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials for variables (all in the same target ring)."""
        targets = list(mapping.values())
        if not targets:
            return self
        ring = targets[0].variables
        for t in targets:
            if t.variables != ring:
                raise InputError("substitution images live in different rings")
        images = []
        for v in self.variables:
            if v not in mapping:
                raise InputError(f"no substitution image for variable {v!r}")
            images.append(mapping[v])
        # every image a variable x_k of the ring: move each exponent to k
        units = [next(iter(img.terms.items())) for img in images if len(img.terms) == 1]
        slots = [e.index(1) for e, c in units if c == 1 and sum(e) == 1]
        if len(slots) == len(images):
            out: dict[Exponents, Scalar] = {}
            for exps, coeff in self.terms.items():
                key = [0] * len(ring)
                for k, e in zip(slots, exps):
                    key[k] += e
                key = tuple(key)
                out[key] = out.get(key, 0) + coeff
            return Poly._trusted(ring, _exact_nonzero(out))
        result = Poly.zero(ring)
        for exps, coeff in self.terms.items():
            term = Poly.constant(ring, coeff)
            for img, e in zip(images, exps):
                if e:
                    term = term * img**e
            result = result + term
        return result

    def lowest_monic(self) -> "Poly":
        """This nonzero polynomial scaled so that its lowest term in
        ``graded_key`` order has coefficient 1."""
        low = self.terms[min(self.terms, key=graded_key)]
        return self if type(low) is int and low == 1 else self * Fraction(1, low)

    # -- division ----------------------------------------------------------

    def _leading(self) -> tuple[Exponents, Scalar]:
        exps = max(self.terms, key=lambda e: (sum(e), e))
        return exps, self.terms[exps]

    def divide_exact(self, divisor: "Poly") -> Optional["Poly"]:
        """Return self / divisor when the division is exact, else None."""
        self._check_ring(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        quotient: dict[Exponents, Scalar] = {}
        rem = dict(self.terms)
        lead_e, lead_c = divisor._leading()
        int_lead = type(lead_c) is int
        while rem:
            top = max(rem, key=lambda e: (sum(e), e))
            qe = tuple(a - b for a, b in zip(top, lead_e))
            if any(e < 0 for e in qe):
                return None
            rc = rem[top]
            # an int quotient of ints by //, any other by one Fraction
            exact = int_lead and type(rc) is int and not rc % lead_c
            qc = quotient[qe] = rc // lead_c if exact else exact_scalar(Fraction(rc, lead_c))
            _add_shifted(rem, -qc, divisor.terms, qe)
        return Poly._trusted(self.variables, quotient)

    # -- weighted structure --------------------------------------------------

    def quasi_homogeneous_degree(self, weights: Sequence[Fraction]) -> Optional[Fraction]:
        """The common weighted degree of all terms, or None if they differ."""
        if len(weights) != len(self.variables):
            raise InputError("weight count does not match variable count")
        # one integer dot product per term; a single Fraction at the end
        int_weights, scale = integer_weights(weights)
        degrees = {sum(map(mul, exps, int_weights)) for exps in self.terms}
        if len(degrees) != 1:
            return None
        return Fraction(degrees.pop(), scale)

    # -- rendering ---------------------------------------------

    def _term_str(self, exps: Exponents, coeff: Scalar) -> str:
        parts = []
        for name, e in zip(self.variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        if not parts:
            return format_fraction(coeff)
        body = "*".join(parts)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{format_fraction(coeff)}*{body}"

    def __str__(self) -> str:
        if len(self.terms) < 2:  # no sort: "0", or the first piece of the general path
            return self._term_str(*next(iter(self.terms.items()))) if self.terms else "0"
        ordered = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = [self._term_str(ordered[0], self.terms[ordered[0]])]
        for exps in ordered[1:]:
            coeff = self.terms[exps]
            if coeff < 0:
                pieces.append(" - " + self._term_str(exps, -coeff))
            else:
                pieces.append(" + " + self._term_str(exps, coeff))
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, vars={self.variables!r})"


def integer_weights(weights: Sequence[Scalar]) -> tuple[tuple[int, ...], int]:
    """Weights rescaled by the lcm of their denominators: returns
    (integer weights, scale)."""
    scale = lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (scale // w.denominator) for w in weights), scale


def parse_ratio(text: str) -> tuple[int, int]:
    """An integer or a quotient of integers, as (numerator, denominator) in
    lowest terms with a positive denominator; InputError on anything else."""
    num, slash, den = text.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
        if q == 0:
            raise ValueError("zero denominator")
    except ValueError as exc:
        raise InputError(f"not a rational number: {text!r}") from exc
    g = gcd(p, q) if q > 0 else -gcd(p, q)  # a negative denominator flips both signs
    return p // g, q // g


def parse_fraction(text: str) -> Scalar:
    """``parse_ratio`` as an exact scalar."""
    p, q = parse_ratio(text)
    return p if q == 1 else Fraction(p, q)


class WeightSystem:
    """Positive rational weights plus the verified weighted degree of a tagged
    polynomial.  Quasi-homogeneity is always checked, never assumed."""

    __slots__ = ("weights", "total_degree", "_scaled")

    def __init__(self, weights: Sequence[Scalar], total_degree: Scalar):
        ws = tuple(exact_scalar(w) for w in weights)
        if any(w <= 0 for w in ws):
            raise InputError("all weights must be positive")
        d = exact_scalar(total_degree)
        if d <= 0:
            raise InputError("weighted total degree must be positive")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "total_degree", d)
        object.__setattr__(self, "_scaled", integer_weights(ws))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("WeightSystem is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightSystem):
            return NotImplemented
        return self.weights == other.weights and self.total_degree == other.total_degree

    def __hash__(self) -> int:
        return hash((self.weights, self.total_degree))

    def __repr__(self) -> str:
        ws = ",".join(format_fraction(w) for w in self.weights)
        return f"WeightSystem(weights=({ws}), degree={format_fraction(self.total_degree)})"

    @classmethod
    def for_poly(cls, f: Poly, weights: Sequence[Scalar]) -> "WeightSystem":
        """Build a certificate for ``f``; rejects non-quasi-homogeneous input."""
        ws = tuple(exact_scalar(w) for w in weights)
        degree = f.quasi_homogeneous_degree(ws)
        if degree is None or f.is_zero:
            raise InputError(
                f"{f} is not quasi-homogeneous for weights "
                f"({', '.join(format_fraction(w) for w in ws)})"
            )
        return cls(ws, degree)

    def integer_scaled(self) -> tuple[tuple[int, ...], int]:
        """Weights rescaled to integers: returns (scaled weights, scale),
        computed once per weight system."""
        return self._scaled


# -- expression parser -------------------------------------------------------
#
# Grammar: integer/rational literals (decimal digits), declared variable
# identifiers, + - * ^ (nonnegative integer exponents), parentheses;
# whitespace ignored.  Every value is a plain {exponents: scalar} dict with no
# zero entries, the one Poly is built at the end.

_SPACE, _DIGITS, _WORD = re.compile(r"\s*"), re.compile(r"\d+"), re.compile(r"\w+")


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text, self.pos, self.variables = text, 0, variables
        self.one = one = (0,) * len(variables)
        self.units = {v: one[:i] + (1,) + one[i + 1 :] for i, v in enumerate(variables)}

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def peek(self) -> str:
        """The next character past whitespace, "" at the end."""
        c = self.text[self.pos : self.pos + 1]
        if c.isspace():
            self.pos = _SPACE.match(self.text, self.pos).end()
            c = self.text[self.pos : self.pos + 1]
        return c

    def parse(self) -> Poly:
        terms = self.parse_expr()
        if self.peek():
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        return Poly._trusted(self.variables, _exact_nonzero(terms))

    def parse_expr(self) -> dict:
        value = self.parse_term()  # a fresh dict: the sum accumulates in it
        while (c := self.peek()) in ("+", "-"):
            self.pos += 1
            _add_shifted(value, 1 if c == "+" else -1, self.parse_term(), self.one)
        return value

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            value = _times(value, self.parse_factor())
        return value

    def parse_factor(self) -> dict:
        base = self.parse_atom()
        while self.peek() == "^":
            self.pos += 1
            base = _power(base, self.parse_natural(), self.one)
        return base

    def parse_atom(self) -> dict:
        c = self.peek()
        if c == "(":
            self.pos += 1
            inner = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if c == "-":
            self.pos += 1
            return {e: -v for e, v in self.parse_factor().items()}
        if c == "+":
            self.pos += 1
            return self.parse_factor()
        if c.isdecimal():
            value = self.parse_rational()
            return {self.one: value} if value else {}
        if c.isalpha() or c == "_":
            name = _WORD.match(self.text, self.pos).group()
            if name not in self.units:
                declared = ", ".join(self.variables)
                raise self.error(f"unknown variable {name!r} (declared: {declared})")
            self.pos += len(name)
            return {self.units[name]: 1}
        raise self.error("expected a literal, variable, or parenthesized expression")

    def parse_natural(self) -> int:
        self.peek()
        digits = _DIGITS.match(self.text, self.pos)
        if digits is None:
            raise self.error("expected a nonnegative integer exponent")
        self.pos = digits.end()
        return int(digits.group())

    def parse_rational(self) -> Scalar:
        numerator, after = self.parse_natural(), self.pos
        if self.peek() == "/":
            self.pos += 1
            self.peek()
            if _DIGITS.match(self.text, self.pos):
                start, denominator = self.pos, self.parse_natural()
                if not denominator:
                    raise ParseError("zero denominator", start)
                return exact_scalar(Fraction(numerator, denominator))
        self.pos = after  # a "/" with no denominator is left to the caller
        return numerator


def parse_polynomial(text: str, variables: Sequence[str]) -> Poly:
    """Parse an expression in the declared variables; raises ParseError with
    the offending position on malformed input."""
    return _Parser(text, _ring(variables)).parse()
