"""Truncated (a,b)-modules, normal ordering, and the test-side torsion
fixtures."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, find, given, strategies as st

from brieskorn import ab_module, cli
from brieskorn.ab_module import (
    ABModule,
    _integer_operator,
    _reorder_a_powers,
    factorial_identity_holds,
    is_regular,
    is_simple_pole,
    tensor,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.linalg import Span
from brieskorn.poly import format_fraction, parse_fraction, parse_ratio

from conftest import columns_commute, fractions, rank_one, rewrite_normal_order
from test_poly import ratio_texts
from torsion_model import (
    TorsionFixture,
    a_torsion,
    fixture_axioms_hold,
    is_nilpotent,
    mat_power,
    mat_vec,
    nilpotence_exponent,
    subspaces_equal,
    torsion_subspaces,
)


def word(letters: str) -> dict:
    """One word with coefficient 1, as the rewriter reads it."""
    return {tuple(letters): 1}


def exponents(ordered: dict) -> dict:
    """A normal-ordered combination of words as {(b exponent, a exponent): coeff}."""
    return {(w.count("b"), w.count("a")): c for w, c in ordered.items()}


def rewriter_reorder(l: int, r: int) -> tuple[tuple[int, int, int], ...]:
    """The rewriter's normal form of a^l b^r as ``_reorder_a_powers``
    tuples (b exponent, a exponent, coeff), by rising b exponent."""
    ordered = exponents(rewrite_normal_order(word("a" * l + "b" * r)))
    return tuple(sorted((s, j, c) for (s, j), c in ordered.items()))


def a_times(ordered: dict) -> dict:
    """a times a normal form sum c b^s a^j, keyed (s, j), normal ordered by
    the one-step rule a b^s = b^s a + s b^(s+1): each term gives
    c b^s a^(j+1) + c s b^(s+1) a^j.  The induction step of the closed form
    of a^l b^r."""
    out: dict = {}
    for (s, j), c in ordered.items():
        for key, value in (((s, j + 1), c), ((s + 1, j), c * s)):
            out[key] = out.get(key, 0) + value
    return {key: c for key, c in out.items() if c}


def one_step_misses(reorder=_reorder_a_powers, top: int = 6) -> list[tuple[int, int]]:
    """The (l, r), l and r <= ``top``, at which the closed form ``reorder``
    of a^(l+1) b^r is not a_times of that of a^l b^r, or, at l = 0, that of
    b^r is not b^r."""

    def form(l: int, r: int) -> dict:
        return {(s, j): c for s, j, c in reorder(l, r) if c}

    misses = [(0, r) for r in range(top + 1) if form(0, r) != {(r, 0): 1}]
    for l in range(top + 1):
        for r in range(top + 1):
            if form(l + 1, r) != a_times(form(l, r)):
                misses.append((l, r))
    return misses


def is_normal(operator: dict) -> bool:
    """True when every word already has all b letters on the left."""
    return all("ab" not in "".join(letters) for letters in operator)


class TestNormalOrder:
    def test_defining_relation(self):
        # a b = b a + b^2, by the closed form and by the rewriter
        assert _reorder_a_powers(1, 1) == ((1, 1, 1), (2, 0, 1))
        assert rewrite_normal_order(word("ab")) == {("b", "a"): 1, ("b", "b"): 1}

    def test_a2b2_hand_checked(self):
        # a^2 b^2 = b^2 a^2 + 4 b^3 a + 6 b^4, verified once by hand
        assert _reorder_a_powers(2, 2) == ((2, 2, 1), (3, 1, 4), (4, 0, 6))

    def test_a_bn_rule(self):
        for n in range(1, 7):
            assert _reorder_a_powers(1, n) == ((n, 1, 1), (n + 1, 0, n))

    def test_already_normal(self):
        for k in range(5):
            assert _reorder_a_powers(k, 0) == ((0, k, 1),)
            assert _reorder_a_powers(0, k) == ((k, 0, 1),)
        w = {tuple("bbbaa"): Fraction(5, 7)}
        assert rewrite_normal_order(w) == w
        assert is_normal(w)

    @given(st.lists(st.sampled_from("ab"), max_size=7))
    def test_rewriter_is_confluent(self, letters):
        w = word("".join(letters))
        left = rewrite_normal_order(w, leftmost=True)
        assert left == rewrite_normal_order(w, leftmost=False)
        assert is_normal(left)

    def test_closed_form_passes_its_one_step_induction(self):
        # a^(l+1) b^r = a (a^l b^r), each term moved by a b^s = b^s a + s b^(s+1)
        assert one_step_misses() == []

    def test_closed_form_is_the_rewriters_normal_form(self):
        for l in range(7):
            for r in range(7):
                assert _reorder_a_powers(l, r) == rewriter_reorder(l, r), (l, r)

    def test_identity_for_small_n(self):
        for n in range(1, 41):
            assert factorial_identity_holds(n)

    def test_identity_sum_is_the_rewriters_normal_form(self):
        # b^j a^n b^(n-j) normal orders to b^j times the closed form of
        # a^n b^(n-j), as factorial_identity_holds sums it; the rewriter
        # agrees word by word and on the signed sum, which is n! b^(2n)
        for n in range(1, 6):
            rhs: dict = {}
            total: dict = {}
            for j in range(n + 1):
                letters = ("b",) * j + ("a",) * n + ("b",) * (n - j)
                shifted = {(j + i, l): c for i, l, c in _reorder_a_powers(n, n - j)}
                assert exponents(rewrite_normal_order({letters: 1})) == shifted, (n, j)
                rhs[letters] = (-1) ** j * comb(n, j)
                for key, c in shifted.items():
                    total[key] = total.get(key, 0) + rhs[letters] * c
            total = {key: c for key, c in total.items() if c}
            assert exponents(rewrite_normal_order(rhs)) == total == {(2 * n, 0): factorial(n)}

    def test_closed_form_coefficients_are_integers(self):
        assert all(type(c) is int for *_, c in _reorder_a_powers(6, 3))


class TestABModule:
    def test_rank_one_lambda_b_commutes(self):
        for lam in (Fraction(0), Fraction(1, 3), Fraction(-2)):
            assert columns_commute(rank_one(lam))

    def test_generator_with_zero_action_commutes(self):
        # a e = 0 extended by the commutation rule: a(b^n e) = n b^(n+1) e
        module = ABModule(1, 16, [[[]]])
        assert columns_commute(module)
        element = generator(0, 3)
        assert apply_a(module, element) == {(0, 4): Fraction(3)}

    def test_validation(self):
        with pytest.raises(InputError):
            ABModule(0, 16, [])
        with pytest.raises(InputError):
            ABModule(1, 1, [[[0]]])
        with pytest.raises(InputError):
            ABModule(2, 16, [[[0]]])

    def test_serialization_round_trip(self):
        module = ABModule(
            2,
            8,
            [
                [[0, Fraction(1, 3)], [0, 0, Fraction(2)]],
                [[], [0, Fraction(-1)]],
            ],
            label="demo",
        )
        back = ABModule.from_record(module.to_record())
        assert back.rank == module.rank
        assert back.trunc_order == module.trunc_order
        assert back.a_matrix == module.a_matrix
        assert back.label == "demo"

    def test_repeated_b_power_in_one_entry_is_malformed(self):
        # the second coefficient of b^1 is not merged into, nor put over, the first
        record = {"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "1"], [1, "2"]]]]}
        with pytest.raises(InputError, match="malformed module record .*b-power 1 repeated"):
            ABModule.from_record(record)
        record["a_matrix"] = [[[[2, "2"], [1, "1"]]]]
        assert ABModule.from_record(record).a_matrix == (((0, 1, 2),),)


class TestTensor:
    def test_rank_one_coefficients_add(self):
        E = rank_one(Fraction(1, 3))
        F = rank_one(Fraction(1, 2))
        T = tensor(E, F)
        assert T.rank == 1
        assert T.a_matrix[0][0] == (0, Fraction(5, 6))

    def test_rank_multiplicative(self):
        E = ABModule(2, 16, [[[0, 1], []], [[], [0, 2]]])
        F = ABModule(3, 16, [[[0, 1], [], []], [[], [0, 2], []], [[], [], [0, 3]]])
        assert tensor(E, F).rank == 6

    def test_mismatched_truncation_rejected(self):
        with pytest.raises(InputError):
            tensor(rank_one(1, 8), rank_one(1, 16))

    def test_commutative_up_to_swap(self):
        rng = random.Random(7)

        def rand_module(rank):
            return ABModule(
                rank,
                12,
                [
                    [
                        [0] + [Fraction(rng.randint(-2, 2)) for _ in range(2)]
                        for _ in range(rank)
                    ]
                    for _ in range(rank)
                ],
            )

        E, F = rand_module(2), rand_module(3)
        EF, FE = tensor(E, F), tensor(F, E)

        def swap(index, r_left, r_right):
            i, j = divmod(index, r_right)
            return j * r_left + i

        for col in range(EF.rank):
            for row in range(EF.rank):
                assert (
                    EF.a_matrix[row][col]
                    == FE.a_matrix[swap(row, 2, 3)][swap(col, 2, 3)]
                )

    def test_randomized_properties(self):
        rng = random.Random(11)
        for _ in range(25):
            ranks = rng.randint(1, 3), rng.randint(1, 3)
            mods = []
            for r in ranks:
                matrix = [
                    [
                        [0] + [Fraction(rng.randint(-3, 3)) for _ in range(3)]
                        for _ in range(r)
                    ]
                    for _ in range(r)
                ]
                mods.append(ABModule(r, 16, matrix))
            T = tensor(*mods)
            assert T.rank == ranks[0] * ranks[1]
            assert columns_commute(T)
            assert is_simple_pole(T)


class TestRegularity:
    def test_simple_pole_examples(self):
        assert is_simple_pole(rank_one(Fraction(1, 2)))
        assert not is_simple_pole(ABModule(1, 16, [[[1]]]))

    def test_simple_pole_implies_regular_k1(self):
        assert is_regular(rank_one(Fraction(3, 4)), [1]) == (True,)

    def test_unit_constant_term_never_regular(self):
        # a e = e escapes every lattice: (1/b a)^m e = b^(-m) e
        module = ABModule(1, 16, [[[1]]])
        assert is_regular(module, [1, 2, 3]) == (False, False, False)

    def test_tensor_of_regulars_is_regular(self):
        E = rank_one(Fraction(2, 3))
        F = ABModule(2, 16, [[[0, 1], [0, 0, 1]], [[], [0, -1]]])
        assert is_regular(E, [1]) == is_regular(F, [1]) == (True,)
        T = tensor(E, F)
        assert is_regular(T, [1, 2]) == (True, True)

    def test_truncation_guard(self):
        with pytest.raises(InconclusiveError):
            is_regular(rank_one(1, trunc_order=3), [2])

    @pytest.mark.parametrize("order", [4, 8, 12])
    def test_nilpotent_constant_term(self, order):
        # A(0) = [[0, 1], [0, 0]]: a E is not inside b E, a^2 E is inside
        # b^2 E + b a E (values of the Fraction implementation, pinned)
        module = ABModule(
            2, order, [[[0, Fraction(1, 2)], [1]], [[], [0, Fraction(1, 3)]]]
        )
        assert not is_simple_pole(module)
        assert is_regular(module, [1, 2]) == (False, True)
        if order >= 5:
            assert is_regular(module, [3]) == (True,)

    @pytest.mark.parametrize("order", [5, 8, 12])
    def test_nilpotent_constant_term_of_index_three(self, order):
        # A(0) a 3x3 Jordan block: regular from k = 3 on (pinned as above)
        module = ABModule(
            3,
            order,
            [[[0, Fraction(1, 2)], [1], []], [[], [0, 1], [1]], [[], [], [0, -1]]],
        )
        assert is_regular(module, [1, 2, 3]) == (False, False, True)


# modules with N >= 3, so the commutation law has a b^(t+2) e term to see
COMMUTING_MODULES = [
    rank_one(Fraction(1, 2)),
    ABModule(1, 16, [[[]]]),
    ABModule(1, 16, [[[1]]]),
    ABModule(2, 4, [[[0, Fraction(1, 2)], [1]], [[], [0, Fraction(1, 3)]]]),
    ABModule(2, 3, [[[Fraction(-2, 3), 0, 5], []], [[0, 1], [7]]]),
    tensor(
        rank_one(Fraction(2, 3), trunc_order=6),
        ABModule(2, 6, [[[0, 1], [0, 0, 1]], [[], [0, -1]]]),
    ),
]


class TestCommutation:
    @pytest.mark.parametrize("module", COMMUTING_MODULES, ids=repr)
    def test_holds_with_the_derivation_term_only(self, module):
        # a(b^(t+1) e) - b a(b^t e) = b^(t+2) e needs the derivation part
        # (t+1) - t = 1; the matrix parts always cancel, so without it the
        # b^(t+2) e term is left over whenever some t has t + 2 < N (that
        # half is the derivation-term mutant of tests/test_mutants.py)
        assert columns_commute(module)


# -- the integer operator against the Fraction oracle --------------------------

# module elements: sparse maps (generator index, b power) -> coefficient
Element = dict[tuple[int, int], Fraction]


def generator(index: int, power: int = 0) -> Element:
    return {(index, power): Fraction(1)}


def apply_b(module: ABModule, element: Element) -> Element:
    """b on the truncated module, one Fraction element at a time."""
    out: Element = {}
    for (j, t), c in element.items():
        if t + 1 < module.trunc_order:
            out[(j, t + 1)] = out.get((j, t + 1), Fraction(0)) + c
    return {k: v for k, v in out.items() if v != 0}


def apply_a(module: ABModule, element: Element, derivation_term: bool = True) -> Element:
    """a on the truncated module: the matrix part and the derivation part
    b^t e -> t b^(t+1) e, one Fraction element at a time."""
    out: Element = {}
    for (j, t), c in element.items():
        for i in range(module.rank):
            for power, coeff in enumerate(module.a_matrix[i][j]):
                target = t + power
                if coeff and target < module.trunc_order:
                    out[(i, target)] = out.get((i, target), Fraction(0)) + c * coeff
        if derivation_term and t > 0 and t + 1 < module.trunc_order:
            out[(j, t + 1)] = out.get((j, t + 1), Fraction(0)) + c * t
    return {k: v for k, v in out.items() if v != 0}


def oracle_basis(module: ABModule) -> list[dict]:
    return [
        generator(j, t)
        for j in range(module.rank)
        for t in range(module.trunc_order)
    ]


def reference_check_commutation(module: ABModule, derivation_term: bool = True) -> bool:
    """a(b x) - b(a x) = b^2 x on every basis vector, one Fraction element at
    a time through ``apply_a`` and ``apply_b``."""
    for element in oracle_basis(module):
        ((_, t),) = element.keys()
        if t + 2 >= module.trunc_order:
            continue
        lhs = apply_a(module, apply_b(module, element), derivation_term)
        rhs = apply_b(module, apply_a(module, element, derivation_term))
        b2 = apply_b(module, apply_b(module, element))
        diff = dict(lhs)
        for key, value in rhs.items():
            diff[key] = diff.get(key, Fraction(0)) - value
        for key, value in b2.items():
            diff[key] = diff.get(key, Fraction(0)) - value
        if any(value != 0 for value in diff.values()):
            return False
    return True


def reference_is_regular(module: ABModule, k: int) -> bool:
    """a^k E inside sum_{j<k} b^(k-j) a^j E modulo b^N, in the whole
    truncated module, through ``apply_a`` and ``apply_b``."""
    if module.trunc_order < k + 2:
        raise InconclusiveError("truncation too small to decide regularity")
    span = Span()
    for j in range(k):
        for vec in oracle_basis(module):
            for _ in range(j):
                vec = apply_a(module, vec)
            for _ in range(k - j):
                vec = apply_b(module, vec)
            if vec:
                span.insert(vec)
    for vec in oracle_basis(module):
        for _ in range(k):
            vec = apply_a(module, vec)
        if not span.contains(vec):
            return False
    return True


@st.composite
def ab_modules(draw, order: int | None = None) -> ABModule:
    """Rank 1-3, N 3-8 (or ``order``), rational b-polynomial entries of
    degree < 4, with or without constant terms."""
    rank = draw(st.integers(min_value=1, max_value=3))
    if order is None:
        order = draw(st.integers(min_value=3, max_value=8))
    constant_terms = draw(st.booleans())
    entry = st.lists(fractions(3), max_size=min(4, order))
    matrix = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            coefficients = draw(entry)
            if coefficients and not constant_terms:
                coefficients[0] = 0
            row.append(coefficients)
        matrix.append(row)
    return ABModule(rank, order, matrix)


def one_order(module: ABModule, k: int) -> bool:
    """``is_regular`` at the one order k."""
    [flag] = is_regular(module, [k])
    return flag


def regular_or_inconclusive(check, module: ABModule, k: int):
    try:
        return check(module, k)
    except InconclusiveError:
        return "inconclusive"


@st.composite
def modules_with_orders(draw) -> tuple[ABModule, list[int]]:
    """A drawn module and a list of orders up to its N: unsorted, repeated,
    perhaps empty, perhaps past N - 2."""
    module = draw(ab_modules())
    return module, draw(st.lists(st.integers(1, module.trunc_order), max_size=6))


def ladder_agrees(module: ABModule, orders: list[int], check=is_regular) -> bool:
    """``check(module, orders)`` gives the per-order reference's flags in
    the order given, or, when an order is past N - 2, is inconclusive and
    names the first such order."""
    reference = {k: regular_or_inconclusive(reference_is_regular, module, k) for k in set(orders)}
    expected = tuple(reference[k] for k in orders)
    if "inconclusive" not in expected:
        return check(module, orders) == expected
    try:
        check(module, orders)
    except InconclusiveError as exc:
        first = orders[expected.index("inconclusive")]
        return exc.context == {"trunc_order": module.trunc_order, "k": first}
    return False


class TestIntegerOperator:
    @given(ab_modules())
    def test_columns_are_the_scaled_fraction_action(self, module):
        scale, columns = _integer_operator(module, module.trunc_order)
        # a drawn module is built by the public constructor: the least scale
        assert scale == module.scale == lcm(
            *(c.denominator for row in module.a_matrix for e in row for c in e)
        )
        assert set(columns) == {
            key for element in oracle_basis(module) for key in element
        }
        for (j, t), column in columns.items():
            assert all(type(v) is int and v for v in column.values())
            scaled = {key: Fraction(v, scale) for key, v in column.items()}
            assert scaled == apply_a(module, generator(j, t))

    @given(ab_modules())
    def test_checks_agree_with_the_fraction_reference(self, module):
        for k in (1, 2, 3):
            assert regular_or_inconclusive(
                one_order, module, k
            ) == regular_or_inconclusive(reference_is_regular, module, k)

    @given(modules_with_orders())
    def test_one_ladder_answers_every_order(self, case):
        assert ladder_agrees(*case)

    def test_every_order_is_checked_before_any_work(self, monkeypatch):
        # the first bad order is named, and no operator is built for any
        module = rank_one(1, trunc_order=8)
        assert is_regular(module, []) == ()
        monkeypatch.setattr("brieskorn.ab_module._integer_operator", None)
        with pytest.raises(InputError, match="at least 1"):
            is_regular(module, [1, 0, 7])
        with pytest.raises(InconclusiveError, match=r"\[k=7, trunc_order=8\]$"):
            is_regular(module, [1, 7, 0])

    def test_an_int_order_is_refused(self):
        # one order is the list [k]; a tuple of flags is never tested for truth
        with pytest.raises(TypeError):
            is_regular(rank_one(1), 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("outcome", [True, False])
    def test_drawn_modules_reach_both_outcomes(self, k, outcome):
        module = find(
            ab_modules(),
            lambda m: m.trunc_order >= k + 2 and is_regular(m, [k]) == (outcome,),
        )
        assert reference_is_regular(module, k) == outcome

    @given(ab_modules())
    def test_columns_obey_the_commutation_law(self, module):
        # the law holds by construction of the derivation part, so no
        # runtime call checks it; this property catches an operator without
        # it (the derivation-term mutant of tests/test_mutants.py)
        assert columns_commute(module) is reference_check_commutation(module) is True

    @given(ab_modules())
    def test_regular_k1_is_the_simple_pole(self, module):
        # at k = 1 both say a E inside b E, read by two independent routes
        assert is_regular(module, [1]) == (is_simple_pole(module),)

    def test_cli_names_are_the_module_checks(self):
        # abmod check prints "commutation": true with no call behind it
        assert cli.is_simple_pole is is_simple_pole
        assert cli.is_regular is is_regular
        assert cli.tensor is tensor


def tensor_factors() -> st.SearchStrategy[tuple[ABModule, ABModule]]:
    """Two drawn modules that share their truncation order."""
    return st.integers(min_value=3, max_value=8).flatmap(
        lambda n: st.tuples(ab_modules(n), ab_modules(n))
    )


def kronecker_sum(left: ABModule, right: ABModule) -> tuple:
    """The a-matrix of the tensor product, left-factor major, summed in
    Fractions from the views: a(e_i (x) f_j) = sum_k A[k][i] e_k (x) f_j
    + sum_l B[l][j] e_i (x) f_l, each entry zero-trimmed."""
    r1, r2 = left.rank, right.rank
    out = [[[Fraction(0)] * left.trunc_order for _ in range(r1 * r2)] for _ in range(r1 * r2)]
    for i in range(r1):
        for j in range(r2):
            for k in range(r1):
                for power, c in enumerate(left.a_matrix[k][i]):
                    out[k * r2 + j][i * r2 + j][power] += c
            for l in range(r2):
                for power, c in enumerate(right.a_matrix[l][j]):
                    out[i * r2 + l][i * r2 + j][power] += c
    trimmed = []
    for row in out:
        trimmed.append([])
        for cell in row:
            while cell and cell[-1] == 0:
                cell.pop()
            trimmed[-1].append(tuple(cell))
    return tuple(tuple(row) for row in trimmed)


def printed(module: ABModule) -> list:
    """The a-matrix of the record, printed from the view by format_fraction."""
    return [
        [[[power, format_fraction(c)] for power, c in enumerate(entry) if c] for entry in row]
        for row in module.a_matrix
    ]


def labelled_modules() -> st.SearchStrategy[ABModule]:
    """``ab_modules()`` under drawn labels, quotes, backslashes and non-ASCII
    characters included."""
    labels = st.text() | st.sampled_from(['say "E"', "back\\slash", "\u00e9 \u2297 \U0001f600"])
    relabel = lambda m, label: ABModule(m.rank, m.trunc_order, m.a_matrix, label)
    return st.builds(relabel, ab_modules(), labels)


def reference_record(module: ABModule) -> dict:
    """The record, key by key in its order, read from the view."""
    fields = (module.rank, module.trunc_order, module.label, printed(module))
    return dict(zip(("rank", "trunc_order", "label", "a_matrix"), fields))


def writes_its_record(module: ABModule) -> bool:
    """``cli._json`` writes the module, nested in a dict and a list, as
    ``json.dumps`` writes its reference record at ``indent=2``."""
    record = reference_record(module)
    expected = json.dumps({"k": [record, {"m": record}]}, indent=2)
    return cli._json({"k": [module, {"m": module}]}) == expected


# texts that spell one value in different ways
SPELLINGS = ["1/2", "2/4", "-1/-2", "1/-2", "0", "-0", "+3", "3", "6/2", "-1/3"]


@st.composite
def repeating_records(draw) -> dict:
    """Records whose coefficient texts are drawn from a pool of at most four,
    so that texts repeat, and b-powers come in any order."""
    pool = draw(st.lists(st.sampled_from(SPELLINGS) | ratio_texts(), min_size=1, max_size=4))
    rank, order = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    cell = st.dictionaries(st.integers(0, order - 1), st.sampled_from(pool), max_size=order)
    matrix = [[[[p, t] for p, t in draw(cell).items()] for _ in range(rank)] for _ in range(rank)]
    return {"rank": rank, "trunc_order": order, "a_matrix": matrix}


def reference_read(record: dict) -> tuple:
    """(numerators, scale) of a record, each coefficient parsed on its own by
    ``parse_fraction`` and put over the lcm of all denominators."""
    values = [
        [{p: Fraction(parse_fraction(t)) for p, t in entry} for entry in row]
        for row in record["a_matrix"]
    ]
    scale = lcm(*(v.denominator for row in values for cell in row for v in cell.values()))

    def dense(cell: dict) -> tuple:
        out = [0] * (max(cell) + 1) if cell else []
        for p, v in cell.items():
            out[p] = int(v * scale)
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    return tuple(tuple(map(dense, row)) for row in values), scale


def reads_like_the_reference(record: dict) -> bool:
    module = ABModule.from_record(record)
    return (module.numerators, module.scale) == reference_read(record)


class TestRecordTables:
    """``from_record`` parses and scales each distinct coefficient text once;
    ``to_json`` reduces and prints each distinct numerator once."""

    @given(repeating_records())
    @example({"rank": 2, "trunc_order": 3, "a_matrix": [
        [[[2, "2/4"], [0, "-0"]], [[1, "1/2"]]],
        [[[1, "-1/-2"]], [[0, "+3"], [1, "1/-2"]]],
    ]})
    def test_reads_what_a_reader_of_each_coefficient_reads(self, record):
        assert reads_like_the_reference(record)

    def test_each_distinct_text_is_parsed_once_and_each_numerator_reduced_once(
        self, monkeypatch
    ):
        record = {"rank": 2, "trunc_order": 4, "a_matrix": [
            [[[1, "1/2"], [2, "2/4"]], [[1, "1/2"], [0, "3"]]],
            [[[0, "-1/2"], [3, "1/2"]], [[1, "2/4"], [2, "-1/2"], [3, "3"]]],
        ]}
        parsed, reduced = [], []
        monkeypatch.setattr(ab_module, "parse_ratio", lambda t: parsed.append(t) or parse_ratio(t))
        module = ABModule.from_record(record)
        assert sorted(parsed) == ["-1/2", "1/2", "2/4", "3"]
        monkeypatch.setattr(ab_module, "gcd", lambda n, d: reduced.append(n) or gcd(n, d))
        text = module.to_json()
        assert sorted(reduced) == [-1, 1, 6]  # 1/2, -1/2 and 3 over the scale 2
        assert json.loads(text)["a_matrix"] == printed(module)


class TestRecordWriter:
    """``ABModule.to_json`` writes the record from the integers; ``to_record``
    is its parse, and ``from_record`` reads it back (TestIntegerRecords)."""

    @given(labelled_modules())
    @example(ABModule(2, 4, [[[0, Fraction(1, 2), 1], []], [[], [0, Fraction(1, 3)]]], '"\\\u00e9'))
    def test_prints_what_json_dumps_prints_for_its_record(self, module):
        assert module.to_record() == reference_record(module)
        assert list(module.to_record()) == ["rank", "trunc_order", "label", "a_matrix"]
        assert module.to_json() == json.dumps(reference_record(module), indent=2)
        assert writes_its_record(module)

    def test_a_label_that_is_no_string_is_printed_as_given(self):
        # records do not check the label; the writer prints it as json.dumps does
        record = {"rank": 1, "trunc_order": 4, "label": 5, "a_matrix": [[[[1, "1"]]]]}
        module = ABModule.from_record(record)
        assert module.to_record() == record
        assert cli._json(module) == json.dumps(record, indent=2)


NO_PARTITION = "object has no attribute 'partition'"


class TestIntegerRecords:
    """A module is integer numerators over one positive scale; its records
    and tensor products build no Fraction and print what the view holds."""

    @given(labelled_modules())
    def test_record_round_trip_returns_the_module(self, module):
        back = ABModule.from_record(module.to_record())
        fields = ("rank", "trunc_order", "numerators", "scale", "label")
        assert [getattr(back, f) for f in fields] == [getattr(module, f) for f in fields]
        assert module.to_record()["a_matrix"] == printed(module)

    @given(tensor_factors())
    def test_tensor_is_the_kronecker_sum(self, factors):
        product = tensor(*factors)
        assert product.a_matrix == kronecker_sum(*factors)
        assert product.scale > 0
        assert all(entry[-1] for row in product.numerators for entry in row if entry)
        assert product.to_record()["a_matrix"] == printed(product)
        back = ABModule.from_record(product.to_record())
        assert (back.a_matrix, back.label) == (product.a_matrix, product.label)

    def test_denominators_that_cancel(self):
        # 1/2 + 1/2 = 1 over the scale 2, printed "1"; 1/2 - 1/2 leaves the cell empty
        half, minus_half = rank_one(Fraction(1, 2)), rank_one(Fraction(-1, 2))
        whole = tensor(half, half)
        assert (whole.numerators, whole.scale) == ((((0, 2),),), 2)
        assert whole.a_matrix == (((0, 1),),) == kronecker_sum(half, half)
        assert whole.to_record()["a_matrix"] == [[[[1, "1"]]]]
        empty = tensor(half, minus_half)
        assert empty.numerators == (((),),) and empty.a_matrix == kronecker_sum(half, minus_half)
        assert empty.to_record()["a_matrix"] == [[[]]]

    def test_record_coefficients_are_read_reduced(self):
        record = {"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "2/4"], [2, "1/-3"], [3, "0"]]]]}
        module = ABModule.from_record(record)
        assert (module.numerators, module.scale) == ((((0, 3, -2),),), 6)
        assert module.to_record()["a_matrix"] == [[[[1, "1/2"], [2, "-1/3"]]]]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"a_matrix": [[[[1, ["1"]]]]]}, f"(AttributeError: 'list' {NO_PARTITION})"),
            ({"a_matrix": [[[[1, 1]]]]}, f"(AttributeError: 'int' {NO_PARTITION})"),
            ({"a_matrix": [[[[1, None]]]]}, f"(AttributeError: 'NoneType' {NO_PARTITION})"),
            ({"a_matrix": [[[[1, "1/0"]]]]}, "not a rational number: '1/0'"),
            ({"a_matrix": [[[[1, "1", 2]]]]}, "(ValueError: too many values to unpack (expected 2))"),
            ({"a_matrix": [5]}, "(TypeError: 'int' object is not iterable)"),
            ({"rank": "1"}, "(TypeError: '1' is not an integer)"),
            ({"rank": True}, "(TypeError: True is not an integer)"),
            ({"a_matrix": [[[[1, "1"], [1, "2"]]]]}, "(ValueError: b-power 1 repeated in one entry)"),
            ({"a_matrix": [[[[4, "1"]]]]}, "b-power 4 outside the truncation 0..3"),
            ({"rank": 2}, "a-matrix must be 2x2"),
        ],
        ids=[
            "list-coefficient", "int-coefficient", "null-coefficient", "zero-denominator",
            "three-item-pair", "row-not-list", "text-rank", "bool-rank", "repeated-b-power",
            "b-power-out-of-range", "rank-2-of-1x1",
        ],
    )
    def test_refusal_messages_are_pinned(self, fields, message):
        # a reader that keys a table by the coefficient text must still name
        # the error that the coefficient itself raises, not "unhashable type"
        record = {"rank": 1, "trunc_order": 4, "a_matrix": [[[[1, "1/2"]]]], **fields}
        with pytest.raises(InputError) as refused:
            ABModule.from_record(record)
        if message.startswith("("):
            message = f"malformed module record {message}"
        # Python 3.14 names the count it got: "(expected 2, got 3)"
        assert str(refused.value).replace(", got 3)", ")") == message

    def test_sizes_are_checked_before_the_scalars(self):
        # rank and truncation order first, then the scalars, then the shape
        for args, message in [
            ((0, 16, [[[1.5]]]), "rank must be at least 1"),
            ((1, 1, [[[1.5]]]), "truncation order must be at least 2"),
        ]:
            with pytest.raises(InputError, match=message):
                ABModule(*args)
        with pytest.raises(TypeError):
            ABModule(2, 16, [[[1.5]]])
        assert ABModule(1, 2, [[[0, 0, 0]]]).numerators == (((),),)  # trimmed, then sized

    @given(
        st.lists(fractions(4), min_size=1, max_size=3),
        st.lists(fractions(4), min_size=1, max_size=3),
    )
    def test_diagonal_law(self, cs, ds):
        # the tensor of diag(c_i b) and diag(d_j b) is diag((c_i + d_j) b) at
        # index i r_right + j: the law that suspend rests on
        def diag(coefficients):
            rank = len(coefficients)
            cells = [[[0, c] if i == j else [] for j in range(rank)] 
                     for i, c in enumerate(coefficients)]
            return ABModule(rank, 8, cells)

        product = tensor(diag(cs), diag(ds))
        sums = [c + d for c in cs for d in ds]
        assert product.a_matrix == diag(sums).a_matrix == tuple(
            tuple((0, s) if i == j and s else () for j in range(len(sums)))
            for i, s in enumerate(sums)
        )


def derivation_fixture(dim: int) -> TorsionFixture:
    """b the shift e_i -> e_(i+1), a the weighted shift e_i -> i e_(i+1):
    the truncated model of the rank-one module with a e = 0."""
    a = [[(j if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
    b = [[(1 if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
    return TorsionFixture.of(a, b)


class TestTorsionFixtures:
    def test_b_zero_a_nilpotent(self):
        a = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        zero = [[0] * 3 for _ in range(3)]
        fixture = TorsionFixture.of(a, zero)
        assert fixture_axioms_hold(fixture)
        b_space, a_space = torsion_subspaces(fixture)
        assert len(b_space) == 3 and len(a_space) == 3
        assert subspaces_equal(b_space, a_space)

    def test_a_zero_b_jordan(self):
        # B = A = everything whenever a vanishes and b is nilpotent; only
        # the two-dimensional block also satisfies the commutation rule
        for dim in (2, 4):
            zero = [[0] * dim for _ in range(dim)]
            b = [[(1 if i == j + 1 else 0) for j in range(dim)] for i in range(dim)]
            fixture = TorsionFixture.of(zero, b)
            assert fixture.commutation_holds() == (dim == 2)
            b_space, a_space = torsion_subspaces(fixture)
            assert subspaces_equal(b_space, a_space)
            assert len(b_space) == dim
        assert fixture_axioms_hold(
            TorsionFixture.of([[0, 0], [0, 0]], [[0, 0], [1, 0]])
        )

    def test_derivation_fixture(self):
        for dim in (2, 3, 5):
            fixture = derivation_fixture(dim)
            assert fixture.commutation_holds()
            assert fixture_axioms_hold(fixture)
            b_space, a_space = torsion_subspaces(fixture)
            assert subspaces_equal(b_space, a_space)
            n = nilpotence_exponent(fixture.a, a_space)
            assert n is not None
            # the factorial power identity predicts b^(2n) kills A
            power = mat_power(fixture.b, 2 * n)
            assert all(not mat_vec(power, dict(v)) for v in a_space)

    def test_nonconforming_fixture_splits_a_from_a_tilde(self):
        # a like diag(0, 1) with b = shift: the commutation rule fails, and
        # with it the containment of A in the a-torsion collapses
        fixture = TorsionFixture.of([[0, 0], [0, 1]], [[0, 0], [1, 0]])
        assert not fixture.commutation_holds()
        assert not fixture_axioms_hold(fixture)
        _, a_space = torsion_subspaces(fixture)
        a_tilde = a_torsion(fixture)
        assert len(a_space) == 0 and len(a_tilde) == 1

    def test_b_zero_partial_a_breaks_containment(self):
        # with b = 0 the b-torsion is everything; a = diag(0, 1) keeps the
        # a-side torsion strictly smaller, violating the containment axiom
        fixture = TorsionFixture.of([[0, 0], [0, 1]], [[0, 0], [0, 0]])
        assert fixture.commutation_holds()
        assert not fixture_axioms_hold(fixture)
        b_space, a_space = torsion_subspaces(fixture)
        assert len(b_space) == 2 and len(a_space) == 1

    def test_is_nilpotent(self):
        assert is_nilpotent(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))
        assert not is_nilpotent(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
