"""Exact abelian-group arithmetic: examples, oracles, and properties."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest

from cpsums.fgab import (
    DimensionMismatch,
    FgAbGroup,
    Homomorphism,
    IntegerMatrix,
    direct_sum,
    ext1,
    group_from_relations,
    has_element_of_order,
    hom_cokernel,
    hom_image,
    hom_kernel,
    integer_kernel,
    localize_at_prime,
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
        ident = IntegerMatrix.identity(2)
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
        assert d == m and u == IntegerMatrix.identity(1) and v == IntegerMatrix.identity(1)

    def test_empty_shapes(self):
        for m in (IntegerMatrix([], cols=3), IntegerMatrix([[], []], cols=0)):
            u, d, v = smith_normal_form(m)
            assert (u @ m) @ v == d
            assert u.is_unimodular() and v.is_unimodular()

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


class TestCanonicalForm:
    def test_crt(self):
        assert direct_sum(Z2, Z3) == FgAbGroup.cyclic(6)

    def test_non_coprime(self):
        assert direct_sum(Z2, Z4) == FgAbGroup(0, (2, 4))

    def test_mixed_free(self):
        a = FgAbGroup(2, (2,))
        b = FgAbGroup(1, (6,))
        got = direct_sum(a, b)
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
            assert direct_sum(a, b) == direct_sum(b, a)

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


class TestLocalization:
    def test_at_three(self):
        assert localize_at_prime(FgAbGroup.from_cyclic_orders(2, 2, 3), 3) == Z3

    def test_twelve(self):
        assert localize_at_prime(FgAbGroup(2, (12,)), 2) == FgAbGroup(2, (4,))

    def test_disjoint_prime(self):
        assert localize_at_prime(FgAbGroup.cyclic(5), 2) == FgAbGroup.zero()

    def test_not_prime(self):
        with pytest.raises(ValueError):
            localize_at_prime(Z2, 6)

    def test_two_localizations_leave_free_part(self):
        rng = random.Random(17)
        for _ in range(40):
            g = FgAbGroup.from_cyclic_orders(
                0, *[rng.randint(2, 30) for _ in range(rng.randint(0, 3))]
            )
            twice = localize_at_prime(localize_at_prime(g, 2), 3)
            assert twice == g.free_part()


class TestElementOrder:
    def test_no_order_four(self):
        assert not has_element_of_order(FgAbGroup(0, (2, 2, 2)), 4)

    def test_order_four(self):
        assert has_element_of_order(FgAbGroup(0, (2, 4)), 4)

    def test_free_part_excluded(self):
        assert not has_element_of_order(Z, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            has_element_of_order(Z2, 1)


def cocycle_class_count(b_orders, a_orders, cap=1 << 21):
    """Abelian extension classes of B by A by direct 2-cocycle enumeration.

    Enumerates every symmetric normalized function f: B x B -> A, keeps
    the ones satisfying the cocycle identity, and counts classes modulo
    coboundaries.  Exponential; only usable for tiny groups.
    """
    B = list(product(*(range(o) for o in b_orders)))
    A = list(product(*(range(o) for o in a_orders)))

    def badd(x, y):
        return tuple((u + v) % o for u, v, o in zip(x, y, b_orders))

    def aadd(x, y):
        return tuple((u + v) % o for u, v, o in zip(x, y, a_orders))

    def asub(x, y):
        return tuple((u - v) % o for u, v, o in zip(x, y, a_orders))

    zero_b = B[0]
    zero_a = A[0]
    slots = [(x, y) for i, x in enumerate(B) for y in B[i:] if x != zero_b and y != zero_b]
    if len(A) ** len(slots) > cap:
        raise ValueError("enumeration too large")
    triples = [(x, y, z) for x in B for y in B for z in B]

    def expand(assignment):
        f = {}
        for (x, y), val in zip(slots, assignment):
            f[(x, y)] = val
            f[(y, x)] = val
        for x in B:
            f[(zero_b, x)] = zero_a
            f[(x, zero_b)] = zero_a
        return f

    cocycles = []
    for assignment in product(A, repeat=len(slots)):
        f = expand(assignment)
        if all(
            aadd(f[(x, y)], f[(badd(x, y), z)]) == aadd(f[(y, z)], f[(x, badd(y, z))])
            for x, y, z in triples
        ):
            cocycles.append(tuple(sorted(f.items())))
    coboundaries = set()
    nonzero_b = [x for x in B if x != zero_b]
    for gvals in product(A, repeat=len(nonzero_b)):
        g = dict(zip(nonzero_b, gvals))
        g[zero_b] = zero_a
        cob = {}
        for x in B:
            for y in B:
                cob[(x, y)] = asub(aadd(g[x], g[y]), g[badd(x, y)])
        coboundaries.add(tuple(sorted(cob.items())))
    assert len(cocycles) % len(coboundaries) == 0
    return len(cocycles) // len(coboundaries)


class TestExt:
    def test_z2_z2(self):
        assert ext1(Z2, Z2) == Z2
        assert cocycle_class_count((2,), (2,)) == 2

    def test_free_first_argument(self):
        for g in (Z2, Z4, FgAbGroup(3, (2, 6))):
            assert ext1(Z, g) == FgAbGroup.zero()
            assert ext1(FgAbGroup.free(2), g) == FgAbGroup.zero()

    def test_gcd_case(self):
        assert ext1(FgAbGroup.cyclic(6), Z4) == Z2
        # cocycle cross-checks on the prime pieces of Z_6
        assert cocycle_class_count((2,), (4,)) == 2
        assert cocycle_class_count((3,), (4,)) == 1

    def test_torsion_to_free(self):
        assert ext1(FgAbGroup.cyclic(12), Z) == FgAbGroup.cyclic(12)

    def test_cocycle_enumeration_grid(self):
        cases = [
            ((4,), (2,), 2),  # Ext(Z_4, Z_2)
            ((2,), (4,), 2),  # Ext(Z_2, Z_4)
            ((3,), (3,), 3),
            ((2,), (3,), 1),
            ((2, 2), (2,), 4),  # Ext(Z_2^2, Z_2) = Z_2^2
            ((4,), (6,), 2),  # Ext(Z_4, Z_6) = Z_2
            ((3,), (9,), 3),  # Ext(Z_3, Z_9) = Z_3
        ]
        for b_orders, a_orders, expected in cases:
            b = FgAbGroup.from_cyclic_orders(*b_orders)
            a = FgAbGroup.from_cyclic_orders(*a_orders)
            size = ext1(b, a).torsion_order()
            assert size == expected
            assert cocycle_class_count(b_orders, a_orders) == expected

    def test_bilinear_over_sums(self):
        rng = random.Random(31)
        for _ in range(40):
            b1 = FgAbGroup.from_cyclic_orders(rng.randint(2, 9))
            b2 = FgAbGroup.from_cyclic_orders(rng.randint(2, 9))
            a = FgAbGroup.from_cyclic_orders(
                rng.randint(0, 9), rng.randint(2, 9)
            )
            assert ext1(direct_sum(b1, b2), a) == direct_sum(ext1(b1, a), ext1(b2, a))


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
            counts[p**j] = g.torsion_count(p**j)
            j += 1
    return counts


class TestHomomorphisms:
    def test_kernel_of_zero_map(self):
        f = Homomorphism.zero(Z2, Z2)
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


class TestIntegerKernel:
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

    def test_matrix_round_trip_decimal_strings(self):
        m = IntegerMatrix([[10**30, -1], [0, 7]])
        record = m.to_json()
        assert record["entries"][0][0] == str(10**30)
        assert IntegerMatrix.from_json(record) == m
