"""Exact abelian-group arithmetic: examples, oracles, and properties."""

import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest

from cpsums import fgab
from cpsums.fgab import (
    DimensionMismatch,
    FgAbGroup,
    Homomorphism,
    IntegerMatrix,
    factorint,
    group_from_relations,
    hom_cokernel,
    hom_image,
    hom_kernel,
    integer_kernel,
    smith_normal_form,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.cyclic(2)
Z3 = FgAbGroup.cyclic(3)
Z4 = FgAbGroup.cyclic(4)


def snf_checks(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m) @ v == d
    assert abs(u.determinant()) == 1
    assert abs(v.determinant()) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    chain = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
    assert all(x == 0 for x in diag[len(chain):])
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    return diag


def minor_gcd_invariants(m):
    """Independent characterization: d_1 * ... * d_k = gcd of k x k minors."""
    diag = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntegerMatrix(
                    [[m.entries[i][j] for j in cols] for i in rows], cols=k
                )
                g = gcd(g, sub.determinant())
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


class TestSmithNormalForm:
    def test_identity(self):
        ident = IntegerMatrix([[1, 0], [0, 1]])
        u, d, v = smith_normal_form(ident)
        assert u == ident and d == ident and v == ident

    def test_two_by_two(self):
        m = IntegerMatrix([[2, 4], [6, 8]])
        diag = snf_checks(m)
        assert list(diag) == [2, 4]
        assert minor_gcd_invariants(m) == [2, 4]

    def test_zero_one_by_one(self):
        m = IntegerMatrix([[0]])
        u, d, v = smith_normal_form(m)
        assert d == m and u == IntegerMatrix([[1]]) and v == IntegerMatrix([[1]])

    def test_empty_shapes(self):
        for m in (IntegerMatrix([], cols=3), IntegerMatrix([[], []], cols=0)):
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert abs(u.determinant()) == 1 and abs(v.determinant()) == 1

    def test_random_properties(self):
        rng = random.Random(20240)
        for _ in range(300):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            m = IntegerMatrix(
                [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)], cols=c
            )
            snf_checks(m)

    def test_minor_gcds_small(self):
        rng = random.Random(77)
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntegerMatrix(
                [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)], cols=c
            )
            diag = [x for x in snf_checks(m) if x]
            assert diag == minor_gcd_invariants(m)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(4242)
        for _ in range(60):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            ours = [x for x in snf_checks(IntegerMatrix(rows, cols=c)) if x]
            theirs = sympy_snf(sympy.Matrix(rows))
            sdiag = [abs(theirs[i, i]) for i in range(min(r, c))]
            assert ours == [x for x in sdiag if x]

    def test_chain_fixup(self):
        cases = [
            ([[2, 0], [0, 3]], (1, 6)),
            ([[4, 0], [0, 6]], (2, 12)),
            ([[6, 0], [0, 4]], (2, 12)),
            ([[-2, 0], [0, 3]], (1, 6)),
            ([[0, -4], [-6, 0]], (2, 12)),
            ([[-3, 0, 0], [0, -5, 0], [0, 0, 7]], (1, 1, 105)),
            ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], (2, 2, 60)),
            ([[0, 0, 0], [0, 6, 0], [0, 0, 0], [4, 0, 0]], (2, 12, 0)),
            ([[0, 0, 0, 0], [0, 0, 9, 0], [0, 0, 0, 0]], (9, 0, 0)),
            ([[0, 0], [0, 0]], (0, 0)),
        ]
        for rows, expected in cases:
            assert snf_checks(IntegerMatrix(rows)) == expected, rows

    def test_single_row_and_column(self):
        for rows, expected in (([[4, 6, 8]], (2,)), ([[0, 0, -5]], (5,)), ([[0, 0, 0]], (0,))):
            assert snf_checks(IntegerMatrix(rows)) == expected
            column = IntegerMatrix(rows).transpose()
            assert snf_checks(column) == expected
        rng = random.Random(61)
        for n in (1, 2, 7, 24):
            row = [rng.randint(-20, 20) for _ in range(n)]
            g = gcd(*row)
            assert snf_checks(IntegerMatrix([row])) == (g,)
            assert snf_checks(IntegerMatrix([[x] for x in row])) == (g,)

    def test_medium_matrices_match_group_from_relations(self):
        rng = random.Random(2024)
        for _ in range(3):
            for kind in ("square", "tall", "wide", "deficient"):
                m = medium_matrix(rng, kind)
                nonzero = [x for x in snf_checks(m) if x]
                assert group_from_relations(m.cols, m) == FgAbGroup(
                    m.cols - len(nonzero), tuple(x for x in nonzero if x != 1)
                ), (kind, m.shape)

    def test_transform_size_near_hadamard_bound(self):
        # Hermite-form transforms stay under twice the bit length of the
        # Hadamard bound on these matrices; coefficient explosion in the
        # transforms would pass 4x by orders of magnitude.
        rng = random.Random(31337)
        for _ in range(4):
            for kind in ("square", "tall", "wide", "deficient"):
                m = medium_matrix(rng, kind)
                u, _, v = smith_normal_form(m)
                bits = max(abs(x).bit_length() for t in (u, v) for row in t.entries for x in row)
                assert bits <= 4 * hadamard_bits(m), (kind, m.shape, bits)


def medium_matrix(rng, kind):
    """A 15..24-dimensional matrix with entries in [-20, 20].

    ``tall`` has at least as many rows as columns and ``wide`` at most;
    a ``deficient`` one is square with 1..4 rows that are sums of two
    others (entries of the rest in [-10, 10]).
    """
    r = rng.randint(15, 24)
    c = rng.randint(15, r) if kind == "tall" else rng.randint(r, 24) if kind == "wide" else r
    if kind != "deficient":
        return IntegerMatrix([[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)])
    base = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(rng.randint(r - 4, r - 1))]
    rows = base + [
        [x + y for x, y in zip(*rng.sample(base, 2))] for _ in range(r - len(base))
    ]
    rng.shuffle(rows)
    return IntegerMatrix(rows)


def hadamard_bits(m):
    """Bit length of the product of the norms of the nonzero rows of m,
    which bounds every minor of m (Hadamard's inequality)."""
    square = prod(n for row in m.entries if (n := sum(x * x for x in row)))
    return (square.bit_length() + 1) // 2


def rational_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][j]:
                f = mat[i][j] / mat[rank][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def count_cosets_full_rank(rows):
    """|Z^n / lattice| for a full-rank lattice, by residue enumeration.

    Membership in the lattice is decided by bounded search over integer
    combinations of the given rows, so the count is independent of any
    normal-form computation.
    """
    n = len(rows[0])
    bound = 12
    lattice = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(rows)):
        vec = tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(n))
        lattice.add(vec)
    box = max(abs(x) for row in rows for x in row) * len(rows) + 1
    reps = []
    for vec in product(range(box), repeat=n):
        if not any(
            tuple(a - b for a, b in zip(vec, rep)) in lattice for rep in reps
        ):
            reps.append(vec)
    return len(reps)


class TestGroupFromRelations:
    def test_single_relation(self):
        assert group_from_relations(1, [[2]]) == Z2

    def test_two_by_two(self):
        assert group_from_relations(2, [[2, 0], [0, 2]]) == FgAbGroup(0, (2, 2))

    def test_three_generators(self):
        g = group_from_relations(3, [[2, 4, 0], [0, 6, 0]])
        assert g == FgAbGroup(1, (2, 6))
        # oracle: free rank from rational rank, torsion order from cosets
        # of the rank-2 lattice inside its coordinate plane
        assert rational_rank([[2, 4, 0], [0, 6, 0]]) == 2
        assert count_cosets_full_rank([[2, 4], [0, 6]]) == 12 == g.torsion_order()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            group_from_relations(2, [[1, 2, 3]])

    def test_presentation_invariance(self):
        rng = random.Random(99)
        for _ in range(50):
            gens = rng.randint(1, 4)
            rows = [
                [rng.randint(-5, 5) for _ in range(gens)]
                for _ in range(rng.randint(0, 4))
            ]
            base = group_from_relations(gens, IntegerMatrix(rows, cols=gens))
            if rows:
                # permute rows
                perm = rows[:]
                rng.shuffle(perm)
                assert group_from_relations(gens, IntegerMatrix(perm, cols=gens)) == base
                # add one row to another
                if len(rows) >= 2:
                    i, j = rng.sample(range(len(rows)), 2)
                    bumped = [row[:] for row in rows]
                    bumped[i] = [a + b for a, b in zip(bumped[i], bumped[j])]
                    assert (
                        group_from_relations(gens, IntegerMatrix(bumped, cols=gens))
                        == base
                    )
            # permute columns (renames generators)
            cols = list(range(gens))
            rng.shuffle(cols)
            permuted = [[row[c] for c in cols] for row in rows]
            assert (
                group_from_relations(gens, IntegerMatrix(permuted, cols=gens)) == base
            )


    def test_agrees_with_minor_gcds(self):
        rng = random.Random(515)
        for _ in range(150):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            if r >= 2 and rng.random() < 0.5:
                # rank deficient: one row a combination of two others
                a, b = rng.sample(range(r), 2)
                rows[rng.randrange(r)] = [
                    2 * x - 3 * y for x, y in zip(rows[a], rows[b])
                ]
            m = IntegerMatrix(rows, cols=c)
            diag = minor_gcd_invariants(m)
            assert group_from_relations(c, m) == FgAbGroup(
                c - len(diag), tuple(x for x in diag if x != 1)
            ), rows

    def test_factor_equal_to_modulus(self):
        # the last invariant factor is the whole nonzero maximal minor D, so
        # the group is cyclic of order D or Z^r + Z_D
        assert group_from_relations(1, [[5]]) == FgAbGroup.cyclic(5)
        assert group_from_relations(2, [[0, 6]]) == FgAbGroup(1, (6,))
        assert group_from_relations(2, [[2, 0], [0, 3]]) == FgAbGroup.cyclic(6)
        assert group_from_relations(3, [[-4, 0, 0], [0, 0, 0]]) == FgAbGroup(2, (4,))

    def test_zero_and_empty(self):
        assert group_from_relations(2, [[0, 0], [0, 0]]) == FgAbGroup.free(2)
        assert group_from_relations(3, IntegerMatrix([], cols=3)) == FgAbGroup.free(3)
        assert group_from_relations(0, [[], []]) == FgAbGroup.zero()
        assert group_from_relations(0, []) == FgAbGroup.zero()

    def test_runs_without_smith_normal_form(self, monkeypatch):
        # the Smith diagonal comes from the Hermite loop, with no transform
        def refuse(m):
            raise RuntimeError("smith_normal_form called")

        rng = random.Random(4049)
        matrices, expected = [], []
        for _ in range(100):
            r, c, b = rng.randint(1, 9), rng.randint(1, 9), rng.choice((1, 5, 40))
            m = IntegerMatrix([[rng.randint(-b, b) for _ in range(c)] for _ in range(r)], cols=c)
            nonzero = [x for x in smith_normal_form(m)[1].diagonal() if x]
            matrices.append(m)
            expected.append(FgAbGroup(c - len(nonzero), tuple(x for x in nonzero if x != 1)))
        monkeypatch.setattr(fgab, "smith_normal_form", refuse)
        assert [group_from_relations(m.cols, m) for m in matrices] == expected

    def test_equals_snf_diagonal(self):
        rng = random.Random(8128)
        for _ in range(2000):
            r, c = rng.randint(0, 8), rng.randint(0, 8)
            bound = rng.choice((1, 3, 12))
            rows = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
            m = IntegerMatrix(rows, cols=c)
            nonzero = [x for x in smith_normal_form(m)[1].diagonal() if x]
            assert group_from_relations(c, m) == FgAbGroup(
                c - len(nonzero), tuple(x for x in nonzero if x != 1)
            ), rows


class TestCanonicalForm:
    def test_crt(self):
        assert Z2.direct_sum(Z3) == FgAbGroup.cyclic(6)

    def test_non_coprime(self):
        assert Z2.direct_sum(Z4) == FgAbGroup(0, (2, 4))

    def test_mixed_free(self):
        a = FgAbGroup(2, (2,))
        b = FgAbGroup(1, (6,))
        got = a.direct_sum(b)
        assert got == FgAbGroup(3, (2, 6))
        # cross-check with a block-diagonal presentation
        rows = [[0, 0, 0, 2, 0], [0, 0, 0, 0, 6]]
        assert group_from_relations(5, rows) == got

    def test_commutative(self):
        rng = random.Random(5)
        for _ in range(60):
            a = FgAbGroup.from_cyclic_orders(
                *[rng.randint(0, 12) for _ in range(rng.randint(0, 4))]
            )
            b = FgAbGroup.from_cyclic_orders(
                *[rng.randint(0, 12) for _ in range(rng.randint(0, 4))]
            )
            assert a.direct_sum(b) == b.direct_sum(a)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

    def test_torsion_order_of_long_mixed_group(self):
        g = FgAbGroup.from_primary(
            {2: [1] * 3000 + [2] * 40 + [3], 3: [1] * 1500, 5: [2] * 7}, free_rank=9
        )
        assert g.torsion_order() == prod(g.invariant_factors)
        assert g.torsion_order() == 2 ** (3000 + 80 + 3) * 3**1500 * 5**14

    def test_str(self):
        assert str(FgAbGroup.zero()) == "0"
        assert str(FgAbGroup(2, (2, 2, 6))) == "Z^2 + Z_2^2 + Z_6"


class TestFromCyclicOrders:
    def test_repeated_orders_factored_once(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return factorint(n)

        monkeypatch.setattr(fgab, "factorint", counting)
        got = FgAbGroup.from_cyclic_orders(*([12] * 5000), 0, 0)
        assert got == FgAbGroup.from_primary({2: [2] * 5000, 3: [1] * 5000}, free_rank=2)
        assert calls == [12]

    def test_mixed_orders(self):
        got = FgAbGroup.from_cyclic_orders(6, 4, 6, 1, 0, -9, 4)
        assert got == FgAbGroup(1, (2, 6, 12, 36))


class TestLocalization:
    def test_at_three(self):
        assert FgAbGroup.from_cyclic_orders(2, 2, 3).localized_at(3) == Z3

    def test_twelve(self):
        assert FgAbGroup(2, (12,)).localized_at(2) == FgAbGroup(2, (4,))

    def test_disjoint_prime(self):
        assert FgAbGroup.cyclic(5).localized_at(2) == FgAbGroup.zero()

    def test_not_prime(self):
        with pytest.raises(ValueError):
            Z2.localized_at(6)

    def test_two_localizations_leave_free_part(self):
        rng = random.Random(17)
        for _ in range(40):
            g = FgAbGroup.from_cyclic_orders(
                0, *[rng.randint(2, 30) for _ in range(rng.randint(0, 3))]
            )
            twice = g.localized_at(2).localized_at(3)
            assert twice == FgAbGroup.free(g.free_rank)


class TestElementOrder:
    def test_no_order_four(self):
        assert not FgAbGroup(0, (2, 2, 2)).has_element_of_order(4)

    def test_order_four(self):
        assert FgAbGroup(0, (2, 4)).has_element_of_order(4)

    def test_free_part_excluded(self):
        assert not Z.has_element_of_order(2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Z2.has_element_of_order(1)


def tuple_group(g):
    orders = g.invariant_factors
    return list(product(*(range(o) for o in orders))), orders


def subset_type(elems, orders):
    """Isomorphism type of a finite subgroup given as an element set."""
    counts = {}
    exponent = lcm(*orders) if orders else 1
    for p in set(p for o in orders for p in factor_primes(o)):
        j = 1
        while p**j <= exponent:
            counts[p**j] = sum(
                1 for e in elems if all((p**j * x) % o == 0 for x, o in zip(e, orders))
            )
            j += 1
    return counts


def factor_primes(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def group_counts(g):
    counts = {}
    exponent = g.exponent()
    for p in set(p for o in g.invariant_factors for p in factor_primes(o)):
        j = 1
        while p**j <= exponent:
            counts[p**j] = prod(gcd(p**j, d) for d in g.invariant_factors)
            j += 1
    return counts


def ext_gcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hermite_rows(vectors):
    """Row Hermite normal form by pairwise extended-gcd combinations.

    Positive pivots, entries above each pivot in [0, pivot), zero rows
    dropped: the canonical basis of the lattice the vectors span.
    """
    rows = [list(v) for v in vectors]
    width = len(rows[0]) if rows else 0
    k = 0
    for j in range(width):
        if k == len(rows):
            break
        for i in range(k + 1, len(rows)):
            a, b = rows[k][j], rows[i][j]
            if b:
                g, x, y = ext_gcd(a, b)
                top = [x * p + y * q for p, q in zip(rows[k], rows[i])]
                rows[i] = [(a // g) * q - (b // g) * p for p, q in zip(rows[k], rows[i])]
                rows[k] = top
        if rows[k][j] == 0:
            continue
        if rows[k][j] < 0:
            rows[k] = [-x for x in rows[k]]
        for i in range(k):
            q = rows[i][j] // rows[k][j]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
        k += 1
    return [tuple(row) for row in rows[:k]]


def snf_kernel(m):
    """Kernel basis read off the column transform of the Smith form."""
    _, d, v = smith_normal_form(m)
    diag = d.diagonal()
    return [v.column(j) for j in range(m.cols) if j >= len(diag) or diag[j] == 0]


def random_finite_map(rng, lo, hi, entry=20):
    """A well-defined map between random finite groups with lo..hi generators.

    A generator of order d sends only multiples of e/gcd(d, e) to an
    order-e coordinate.
    """

    def chain(length):
        d = rng.choice((2, 3))
        out = []
        for _ in range(length):
            out.append(d)
            d *= rng.choice((1, 1, 1, 2, 3))
        return tuple(out)

    a, b = chain(rng.randint(lo, hi)), chain(rng.randint(lo, hi))
    rows = [[rng.randint(-entry, entry) * (e // gcd(d, e)) for d in a] for e in b]
    return Homomorphism(FgAbGroup(0, a), FgAbGroup(0, b), IntegerMatrix(rows, cols=len(a)))


class TestHomomorphisms:
    def test_kernel_of_zero_map(self):
        f = Homomorphism(Z2, Z2, IntegerMatrix([[0]]))
        assert hom_kernel(f) == Z2
        assert hom_image(f) == FgAbGroup.zero()
        assert hom_cokernel(f) == Z2

    def test_cokernel_of_doubling(self):
        f = Homomorphism(Z, Z, IntegerMatrix([[2]]))
        assert hom_cokernel(f) == Z2
        assert hom_kernel(f) == FgAbGroup.zero()
        assert hom_image(f) == Z

    def test_kernel_of_projection(self):
        z6 = FgAbGroup.from_cyclic_orders(2, 3)
        f = Homomorphism(z6, Z3, IntegerMatrix([[1]]))
        assert hom_kernel(f) == Z2
        assert hom_image(f) == Z3
        # element-level oracle: count kernel elements in Z_6
        elems, orders = tuple_group(z6)
        kernel_elems = [e for e in elems if (e[0] * 1) % 3 == 0]
        assert len(kernel_elems) == 2

    def test_well_definedness_enforced(self):
        # torsion cannot map to a free coordinate
        with pytest.raises(ValueError):
            Homomorphism(Z2, Z, IntegerMatrix([[1]]))
        # 2 * 1 != 0 mod 4
        with pytest.raises(ValueError):
            Homomorphism(Z2, Z4, IntegerMatrix([[1]]))
        # reduction mod 2 of an order-4 class is fine
        Homomorphism(Z4, Z2, IntegerMatrix([[1]]))

    def test_mixed_kernel(self):
        # projection Z + Z_4 -> Z_4
        dom = FgAbGroup(1, (4,))
        f = Homomorphism(dom, Z4, IntegerMatrix([[0, 1]]))
        assert hom_kernel(f) == Z
        assert hom_image(f) == Z4
        assert hom_cokernel(f) == FgAbGroup.zero()

    def test_finite_order_identity_random(self):
        """|domain| = |kernel| * |image| for finite domains."""
        rng = random.Random(2718)
        for _ in range(60):
            dom = FgAbGroup.from_cyclic_orders(
                *[rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
            )
            cod = FgAbGroup.from_cyclic_orders(
                *[rng.choice([2, 3, 4, 8]) for _ in range(rng.randint(1, 3))]
            )
            cols = []
            for d in dom.invariant_factors:
                col = []
                for e in cod.invariant_factors:
                    step = e // gcd(d, e)
                    col.append(step * rng.randint(0, max(e // step - 1, 0)))
                cols.append(col)
            matrix = IntegerMatrix(
                [[cols[j][i] for j in range(len(cols))] for i in range(cod.ngens)],
                cols=dom.ngens,
            )
            f = Homomorphism(dom, cod, matrix)
            ker = hom_kernel(f)
            img = hom_image(f)
            assert dom.torsion_order() == ker.torsion_order() * img.torsion_order()
            # element-level oracle on small cases
            if dom.torsion_order() <= 64:
                elems, orders = tuple_group(dom)
                cod_orders = cod.invariant_factors
                images = set()
                kernel = 0
                for e in elems:
                    img_vec = tuple(
                        sum(matrix.entries[i][j] * e[j] for j in range(len(e))) % cod_orders[i]
                        for i in range(len(cod_orders))
                    )
                    images.add(img_vec)
                    if all(x == 0 for x in img_vec):
                        kernel += 1
                assert kernel == ker.torsion_order()
                assert len(images) == img.torsion_order()

    def test_large_maps_kernel_cokernel(self):
        """|ker| * |B| = |A| * |coker| on 6-8-generator maps.

        Chained transform-tracking Smith forms took from seconds to
        minutes on several of these maps.
        """
        rng = random.Random(11)
        maps = [random_finite_map(rng, 6, 8) for _ in range(12)]
        start = time.perf_counter()
        for f in maps:
            ker, coker = hom_kernel(f), hom_cokernel(f)
            assert ker.torsion_order() * f.codomain.torsion_order() == (
                f.domain.torsion_order() * coker.torsion_order()
            )
        assert time.perf_counter() - start < 2.0


class TestIntegerKernel:
    def test_basis_against_snf_kernel(self):
        rng = random.Random(3141)
        for _ in range(200):
            r, c = rng.randint(0, 6), rng.randint(1, 7)
            rows = [[rng.randint(-7, 7) for _ in range(c)] for _ in range(r)]
            if r >= 2 and rng.random() < 0.5:
                a, b = rng.sample(range(r), 2)
                rows[rng.randrange(r)] = [x + 2 * y for x, y in zip(rows[a], rows[b])]
            m = IntegerMatrix(rows, cols=c)
            basis = integer_kernel(m)
            for vec in basis:
                assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows)
            assert len(basis) == c - rational_rank(rows)
            # equal Hermite forms: the same lattice, and the basis is canonical
            assert basis == hermite_rows(snf_kernel(m)) == hermite_rows(basis), rows

    def test_no_smith_form_needed(self, monkeypatch):
        def refuse(m):
            raise RuntimeError("smith_normal_form called")

        monkeypatch.setattr(fgab, "smith_normal_form", refuse)
        assert group_from_relations(3, [[2, 4, 0], [0, 6, 0]]) == FgAbGroup(1, (2, 6))
        assert integer_kernel(IntegerMatrix([[1, 2, 3]])) == [(1, 1, -1), (0, 3, -2)]
        f = Homomorphism(FgAbGroup(1, (4,)), Z4, IntegerMatrix([[0, 1]]))
        assert (hom_kernel(f), hom_image(f), hom_cokernel(f)) == (Z, Z4, FgAbGroup.zero())
        g = random_finite_map(random.Random(11), 6, 8)
        assert hom_kernel(g).torsion_order() * g.codomain.torsion_order() == (
            g.domain.torsion_order() * hom_cokernel(g).torsion_order()
        )

    def test_simple(self):
        basis = integer_kernel(IntegerMatrix([[1, 2, 3]]))
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0

    def test_full_rank(self):
        assert integer_kernel(IntegerMatrix([[2, 0], [0, 3]])) == []


class TestSerialization:
    def test_group_round_trip(self):
        for g in (FgAbGroup.zero(), FgAbGroup(3, (2, 4)), FgAbGroup(0, (5,))):
            assert FgAbGroup.from_json(g.to_json()) == g

    def test_group_schema(self):
        assert FgAbGroup(1, (2, 6)).to_json() == {"rank": 1, "torsion": [2, 6]}
