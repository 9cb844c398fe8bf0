"""Truncated (a,b)-modules, normal ordering, and the test-side torsion
fixtures."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import find, given, strategies as st

from brieskorn import cli
from brieskorn.ab_module import (
    ABModule,
    OperatorWord,
    _integer_operator,
    _reorder_a_powers,
    bpoly,
    check_commutation,
    factorial_identity_holds,
    is_regular,
    is_simple_pole,
    normal_order,
    tensor,
)
from brieskorn.errors import InconclusiveError, InputError
from brieskorn.linalg import Span

from conftest import fractions, rank_one, rewrite_normal_order
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


def word(letters: str) -> OperatorWord:
    return OperatorWord({tuple(letters): 1})


def is_normal(operator: OperatorWord) -> bool:
    """True when every word already has all b letters on the left."""
    return all("ab" not in "".join(letters) for letters in operator.terms)


class TestNormalOrder:
    def test_defining_relation(self):
        assert normal_order(word("ab")) == word("ba") + word("bb")

    def test_a2b2_hand_checked(self):
        # a^2 b^2 = b^2 a^2 + 4 b^3 a + 6 b^4, verified once by hand
        expected = word("bbaa") + 4 * word("bbba") + 6 * word("bbbb")
        assert normal_order(word("aabb")) == expected

    def test_a_bn_rule(self):
        for n in range(1, 7):
            lhs = normal_order(word("a" + "b" * n))
            rhs = OperatorWord.monomial(n, 1) + n * OperatorWord.monomial(n + 1, 0)
            assert lhs == rhs

    def test_already_normal(self):
        w = OperatorWord.monomial(3, 2, Fraction(5, 7))
        assert normal_order(w) == w
        assert is_normal(w)

    @given(st.lists(st.sampled_from("ab"), max_size=7))
    def test_rewriter_oracle_and_confluence(self, letters):
        w = word("".join(letters))
        left = rewrite_normal_order(w, leftmost=True)
        right = rewrite_normal_order(w, leftmost=False)
        fast = normal_order(w)
        assert left == right == fast
        assert is_normal(fast)

    def test_identity_for_small_n(self):
        for n in range(1, 9):
            assert factorial_identity_holds(n)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("ab"), max_size=6),
                st.one_of(st.integers(min_value=-5, max_value=5), fractions()),
            ),
            max_size=4,
        )
    )
    def test_coefficients_keep_their_type(self, pairs):
        # integer words normal-order in integers, rational ones in Fractions,
        # to the rewriter's answer either way
        w = OperatorWord({})
        for letters, coeff in pairs:
            w = w + OperatorWord({tuple(letters): coeff})
        fast = normal_order(w)
        assert fast == rewrite_normal_order(w)
        if all(type(c) is int for c in w.terms.values()):
            assert all(type(c) is int for c in fast.terms.values())

    def test_identity_words_are_integer(self):
        a, b = word("a"), word("b")
        n = 5
        rhs = OperatorWord({})
        for j in range(n + 1):
            rhs = rhs + ((-1) ** j * comb(n, j)) * ((b**j) * (a**n) * (b ** (n - j)))
        ordered = normal_order(rhs)
        assert ordered == OperatorWord.monomial(2 * n, 0, factorial(n))
        assert all(type(c) is int for c in rhs.terms.values())
        assert all(type(c) is int for c in ordered.terms.values())
        assert all(type(c) is int for *_, c in _reorder_a_powers(6, 3))

    def test_identity_n1_is_the_relation(self):
        a, b = word("a"), word("b")
        assert normal_order(a * b - b * a) == word("bb")


class TestABModule:
    def test_rank_one_lambda_b_commutes(self):
        for lam in (Fraction(0), Fraction(1, 3), Fraction(-2)):
            assert check_commutation(rank_one(lam))

    def test_generator_with_zero_action_commutes(self):
        # a e = 0 extended by the commutation rule: a(b^n e) = n b^(n+1) e
        module = ABModule(1, 16, [[[]]])
        assert check_commutation(module)
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


class TestTensor:
    def test_rank_one_coefficients_add(self):
        E = rank_one(Fraction(1, 3))
        F = rank_one(Fraction(1, 2))
        T = tensor(E, F)
        assert T.rank == 1
        assert T.a_matrix[0][0] == bpoly([0, Fraction(5, 6)])

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
            assert check_commutation(T)
            assert is_simple_pole(T)


class TestRegularity:
    def test_simple_pole_examples(self):
        assert is_simple_pole(rank_one(Fraction(1, 2)))
        assert not is_simple_pole(ABModule(1, 16, [[[1]]]))

    def test_simple_pole_implies_regular_k1(self):
        assert is_regular(rank_one(Fraction(3, 4)), 1)

    def test_unit_constant_term_never_regular(self):
        # a e = e escapes every lattice: (1/b a)^m e = b^(-m) e
        module = ABModule(1, 16, [[[1]]])
        for k in (1, 2, 3):
            assert not is_regular(module, k)

    def test_tensor_of_regulars_is_regular(self):
        E = rank_one(Fraction(2, 3))
        F = ABModule(2, 16, [[[0, 1], [0, 0, 1]], [[], [0, -1]]])
        assert is_regular(E, 1) and is_regular(F, 1)
        T = tensor(E, F)
        assert is_regular(T, 1) and is_regular(T, 2)

    def test_truncation_guard(self):
        with pytest.raises(InconclusiveError):
            is_regular(rank_one(1, trunc_order=3), 2)

    @pytest.mark.parametrize("order", [4, 8, 12])
    def test_nilpotent_constant_term(self, order):
        # A(0) = [[0, 1], [0, 0]]: a E is not inside b E, a^2 E is inside
        # b^2 E + b a E (values of the Fraction implementation, pinned)
        module = ABModule(
            2, order, [[[0, Fraction(1, 2)], [1]], [[], [0, Fraction(1, 3)]]]
        )
        assert not is_simple_pole(module)
        assert (is_regular(module, 1), is_regular(module, 2)) == (False, True)
        if order >= 5:
            assert is_regular(module, 3)

    @pytest.mark.parametrize("order", [5, 8, 12])
    def test_nilpotent_constant_term_of_index_three(self, order):
        # A(0) a 3x3 Jordan block: regular from k = 3 on (pinned as above)
        module = ABModule(
            3,
            order,
            [[[0, Fraction(1, 2)], [1], []], [[], [0, 1], [1]], [[], [], [0, -1]]],
        )
        assert [is_regular(module, k) for k in (1, 2, 3)] == [False, False, True]


# modules with N >= 3, so the commutation check has a b^(t+2) e term to see
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
        assert check_commutation(module)


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
def ab_modules(draw) -> ABModule:
    """Rank 1-3, N 3-8, rational b-polynomial entries of degree < 4, with or
    without constant terms."""
    rank = draw(st.integers(min_value=1, max_value=3))
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


def regular_or_inconclusive(check, module: ABModule, k: int):
    try:
        return check(module, k)
    except InconclusiveError:
        return "inconclusive"


class TestIntegerOperator:
    @given(ab_modules())
    def test_columns_are_the_scaled_fraction_action(self, module):
        scale, columns = _integer_operator(module, module.trunc_order)
        assert scale == lcm(
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
                is_regular, module, k
            ) == regular_or_inconclusive(reference_is_regular, module, k)
        assert check_commutation(module) is reference_check_commutation(module) is True

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("outcome", [True, False])
    def test_drawn_modules_reach_both_outcomes(self, k, outcome):
        module = find(
            ab_modules(),
            lambda m: m.trunc_order >= k + 2 and is_regular(m, k) == outcome,
        )
        assert reference_is_regular(module, k) == outcome

    def test_cli_names_are_the_module_checks(self):
        assert cli.check_commutation is check_commutation
        assert cli.is_regular is is_regular


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
