"""Exact arithmetic on finitely generated abelian groups.

The canonical value type is ``FgAbGroup``: Z^r + Z_{d1} + ... + Z_{dt}
with d1 | d2 | ... | dt and every di >= 2, so equality of values is
isomorphism of groups.  Matrices carry arbitrary-precision Python ints
and every operation is exact; no floating point is used anywhere in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, zip_longest
from math import gcd, prod


class DimensionMismatch(ValueError):
    """Matrix shape is incompatible with the requested operation."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    >>> factorint(360)
    {2: 3, 3: 2, 5: 1}
    """
    if n < 1:
        raise ValueError("factorint expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class IntegerMatrix:
    """Immutable integer matrix, row-major, arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatch("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatch(f"expected {cols} columns, got {width}")
        else:
            width = 0 if cols is None else int(cols)
        self.entries = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        ot = other.transpose().entries
        return IntegerMatrix(
            [[sum(x * y for x, y in zip(row, col)) for col in ot] for row in self.entries],
            cols=other.cols,
        )

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def to_json(self) -> dict:
        """External schema: entries as decimal strings (arbitrary precision safe)."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, record: dict) -> "IntegerMatrix":
        m = cls([[int(x) for x in row] for row in record["entries"]], cols=record["cols"])
        if m.rows != record["rows"]:
            raise DimensionMismatch("row count does not match entries")
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self.entries]!r}, cols={self.cols})"

    def __str__(self) -> str:
        if not self.entries:
            return f"(empty {self.rows}x{self.cols})"
        return "\n".join(" ".join(f"{x:4d}" for x in row) for row in self.entries)


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (u, d, v) with u*m*v = d, u and v unimodular, d diagonal.

    The diagonal is nonnegative and forms a divisibility chain
    d1 | d2 | ... .  Pivots are chosen by least absolute value and all
    arithmetic is exact, so the routine is total on any integer matrix,
    including empty ones.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        if q:
            arow, srow = a[dst], a[src]
            for idx in range(nc):
                arow[idx] += q * srow[idx]
            urow, usrc = u[dst], u[src]
            for idx in range(nr):
                urow[idx] += q * usrc[idx]

    def add_col(dst, src, q):
        if q:
            for row in a:
                row[dst] += q * row[src]
            for row in v:
                row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        best = None
        pr = pc = -1
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pr, pc = i, j
        if best is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            moved = False
            for i in range(nr):
                if i != t and a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
                    if a[i][t]:
                        swap_rows(t, i)
                        moved = True
                        break
            if moved:
                continue
            for j in range(nc):
                if j != t and a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
                    if a[t][j]:
                        swap_cols(t, j)
                        moved = True
                        break
            if moved:
                continue
            # pivot must divide the trailing submatrix for the chain property
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                row = a[i]
                for j in range(t + 1, nc):
                    if row[j] % p:
                        add_row(t, i, 1)
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                break
        t += 1
    return (
        IntegerMatrix(u, cols=nr),
        IntegerMatrix(a, cols=nc),
        IntegerMatrix(v, cols=nc),
    )


@dataclass(frozen=True, order=True)
class FgAbGroup:
    """Finitely generated abelian group in invariant-factor canonical form.

    >>> FgAbGroup.from_cyclic_orders(2, 3)
    FgAbGroup(free_rank=0, invariant_factors=(6,))
    >>> print(FgAbGroup.from_cyclic_orders(0, 0, 2, 12))
    Z^2 + Z_2 + Z_12
    """

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", int(self.free_rank))
        object.__setattr__(
            self, "invariant_factors", tuple(int(d) for d in self.invariant_factors)
        )
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.invariant_factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            if y % x:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def zero(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        """Z_n, with Z_0 = Z and Z_1 = 0."""
        n = abs(int(n))
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def from_cyclic_orders(cls, *orders: int) -> "FgAbGroup":
        """Canonical form of a direct sum of cyclic groups (0 means Z)."""
        rank = 0
        primary: dict[int, list[int]] = {}
        for n in orders:
            n = abs(int(n))
            if n == 0:
                rank += 1
            elif n > 1:
                for p, e in factorint(n).items():
                    primary.setdefault(p, []).append(e)
        return cls.from_primary(primary, free_rank=rank)

    @classmethod
    def from_primary(cls, primary: dict[int, object], free_rank: int = 0) -> "FgAbGroup":
        """Assemble from per-prime exponent multisets, e.g. {2: (2, 1), 3: (1,)}."""
        columns = []
        for p in sorted(primary):
            exps = sorted((int(e) for e in primary[p] if int(e) > 0), reverse=True)
            if exps:
                columns.append([p**e for e in exps])
        factors = []
        for chunk in zip_longest(*columns, fillvalue=1):
            factors.append(prod(chunk))
        factors = [d for d in factors if d > 1]
        return cls(free_rank, tuple(reversed(factors)))

    # -- structure ---------------------------------------------------------

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def torsion_order(self) -> int:
        # one power per run of equal factors: a product over thousands of
        # factors one at a time costs time quadratic in their count
        return prod(d ** len(list(run)) for d, run in groupby(self.invariant_factors))

    def exponent(self) -> int:
        """Exponent of the torsion subgroup (1 when torsion free)."""
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def torsion(self) -> "FgAbGroup":
        return FgAbGroup(0, self.invariant_factors)

    def free_part(self) -> "FgAbGroup":
        return FgAbGroup(self.free_rank, ())

    def primary_exponents(self) -> dict[int, tuple[int, ...]]:
        """Per-prime exponent partitions of the torsion part, descending."""
        out: dict[int, list[int]] = {}
        for d in self.invariant_factors:
            for p, e in factorint(d).items():
                out.setdefault(p, []).append(e)
        return {p: tuple(sorted(es, reverse=True)) for p, es in sorted(out.items())}

    def torsion_count(self, n: int) -> int:
        """Number of torsion elements killed by n: |{x : n*x = 0}|."""
        return prod(gcd(n, d) for d in self.invariant_factors)

    def p_socle_rank(self, p: int) -> int:
        """Number of invariant factors divisible by p."""
        return sum(1 for d in self.invariant_factors if d % p == 0)

    # -- operations --------------------------------------------------------

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_cyclic_orders(
            *([0] * (self.free_rank + other.free_rank)),
            *self.invariant_factors,
            *other.invariant_factors,
        )

    def localized_at(self, p: int) -> "FgAbGroup":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        factors = []
        for d in self.invariant_factors:
            q = 1
            while d % p == 0:
                q *= p
                d //= p
            if q > 1:
                factors.append(q)
        return FgAbGroup(self.free_rank, tuple(factors))

    def has_element_of_order(self, n: int) -> bool:
        """True iff n divides some invariant factor.

        Only torsion counts: the free part contributes no elements of
        finite order > 1.
        """
        if n < 2:
            raise ValueError("order predicate requires n >= 2")
        return any(d % n == 0 for d in self.invariant_factors)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.invariant_factors)}

    @classmethod
    def from_json(cls, record: dict) -> "FgAbGroup":
        return cls(int(record["rank"]), tuple(int(d) for d in record["torsion"]))

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, run in groupby(self.invariant_factors):
            times = len(list(run))
            parts.append(f"Z_{d}" + (f"^{times}" if times > 1 else ""))
        return " + ".join(parts) if parts else "0"


ZERO_GROUP = FgAbGroup.zero()


def group_from_relations(generators: int, relations) -> FgAbGroup:
    """Canonical form of Z^generators / (row span of the relation matrix)."""
    rel = (
        relations
        if isinstance(relations, IntegerMatrix)
        else IntegerMatrix(relations, cols=generators)
    )
    if rel.cols != generators:
        raise DimensionMismatch(
            f"relation matrix has {rel.cols} columns for {generators} generators"
        )
    _, d, _ = smith_normal_form(rel)
    diag = [x for x in d.diagonal() if x]
    return FgAbGroup(generators - len(diag), tuple(x for x in diag if x != 1))


def direct_sum(a: FgAbGroup, b: FgAbGroup) -> FgAbGroup:
    return a.direct_sum(b)


def localize_at_prime(g: FgAbGroup, p: int) -> FgAbGroup:
    return g.localized_at(p)


def has_element_of_order(g: FgAbGroup, n: int) -> bool:
    return g.has_element_of_order(n)


def ext1(b: FgAbGroup, a: FgAbGroup) -> FgAbGroup:
    """Ext^1(b, a), by bilinearity over cyclic summands.

    Base cases: Ext(Z, -) = 0, Ext(Z_m, Z) = Z_m, Ext(Z_m, Z_n) = Z_gcd(m,n).

    >>> print(ext1(FgAbGroup.cyclic(6), FgAbGroup.cyclic(4)))
    Z_2
    """
    parts: list[int] = []
    for m in b.invariant_factors:
        parts.extend([m] * a.free_rank)
        parts.extend(gcd(m, n) for n in a.invariant_factors)
    return FgAbGroup.from_cyclic_orders(*parts)


def integer_kernel(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : m*x = 0}, as column vectors."""
    _, d, v = smith_normal_form(m)
    diag = d.diagonal()
    basis = []
    for j in range(m.cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(v.column(j))
    return basis


# -- homomorphisms ----------------------------------------------------------


def _relation_lattice(g: FgAbGroup) -> list[tuple[int, ...]]:
    """Generators of the relation lattice in Z^ngens (d_i times a unit vector)."""
    n = g.ngens
    out = []
    for idx, d in enumerate(g.invariant_factors):
        vec = [0] * n
        vec[g.free_rank + idx] = d
        out.append(tuple(vec))
    return out


@dataclass(frozen=True)
class Homomorphism:
    """Map of f.g. abelian groups, as a matrix on canonical generators.

    Generators are ordered free first, then torsion by increasing
    invariant factor.  Column j of the matrix is the image of the j-th
    domain generator in codomain coordinates.  Well-definedness (each
    torsion generator of order d maps to a d-torsion class) is checked
    at construction.
    """

    domain: FgAbGroup
    codomain: FgAbGroup
    matrix: IntegerMatrix

    def __post_init__(self):
        if self.matrix.rows != self.codomain.ngens or self.matrix.cols != self.domain.ngens:
            raise DimensionMismatch(
                f"matrix {self.matrix.shape} does not map "
                f"{self.domain.ngens} generators to {self.codomain.ngens}"
            )
        rb = self.codomain.free_rank
        for idx, d in enumerate(self.domain.invariant_factors):
            col = self.matrix.column(self.domain.free_rank + idx)
            for i in range(rb):
                if d * col[i] != 0:
                    raise ValueError(
                        f"torsion generator of order {d} maps to a free coordinate"
                    )
            for j, e in enumerate(self.codomain.invariant_factors):
                if (d * col[rb + j]) % e:
                    raise ValueError(
                        f"image of an order-{d} generator is not killed by {d}"
                    )

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> "Homomorphism":
        return cls(domain, codomain, IntegerMatrix.zero(codomain.ngens, domain.ngens))


def _quotient_of_spans(
    gens: list[tuple[int, ...]], rels: list[tuple[int, ...]], ambient: int
) -> FgAbGroup:
    """Group (span(gens) + span(rels)) / span(rels) inside Z^ambient."""
    all_gens = list(gens) + list(rels)
    s = len(all_gens)
    if s == 0:
        return ZERO_GROUP
    # columns of g are the generators; w = preimage of the relation lattice
    g_cols = [[vec[i] for vec in all_gens] for i in range(ambient)]
    block = [row + [-r[i] for r in rels] for i, row in enumerate(g_cols)]
    kernel = integer_kernel(IntegerMatrix(block, cols=s + len(rels)))
    w_rows = [vec[:s] for vec in kernel]
    return group_from_relations(s, IntegerMatrix(w_rows, cols=s))


def hom_kernel(f: Homomorphism) -> FgAbGroup:
    """Canonical form of ker(f)."""
    na = f.domain.ngens
    rel_b = _relation_lattice(f.codomain)
    block = [
        list(f.matrix.row(i)) + [-r[i] for r in rel_b] for i in range(f.codomain.ngens)
    ]
    kernel = integer_kernel(IntegerMatrix(block, cols=na + len(rel_b)))
    lattice_gens = [vec[:na] for vec in kernel]
    return _quotient_of_spans(lattice_gens, _relation_lattice(f.domain), na)


def hom_image(f: Homomorphism) -> FgAbGroup:
    """Canonical form of im(f) as a subgroup of the codomain."""
    cols = [f.matrix.column(j) for j in range(f.domain.ngens)]
    return _quotient_of_spans(cols, _relation_lattice(f.codomain), f.codomain.ngens)


def hom_cokernel(f: Homomorphism) -> FgAbGroup:
    """Canonical form of coker(f) = codomain / im(f)."""
    nb = f.codomain.ngens
    rows = _relation_lattice(f.codomain) + [
        f.matrix.column(j) for j in range(f.domain.ngens)
    ]
    return group_from_relations(nb, IntegerMatrix(rows, cols=nb))
