"""Exact arithmetic on finitely generated abelian groups.

The canonical value type is ``FgAbGroup``: Z^r + Z_{d1} + ... + Z_{dt}
with d1 | d2 | ... | dt and every di >= 2, so equality of values is
isomorphism of groups.  Matrices carry arbitrary-precision Python ints
and every operation is exact; no floating point is used anywhere in
this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, zip_longest
from math import gcd, prod
from operator import mul


class DimensionMismatch(ValueError):
    """Matrix shape is incompatible with the requested operation."""


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


def is_prime(p: int) -> bool:
    return p > 1 and factorint(p) == {p: 1}


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
    def _of_rows(cls, rows, cols: int) -> "IntegerMatrix":
        """Wrap rows of ints already known to be ``cols`` wide, unchecked."""
        self = object.__new__(cls)
        self.entries = tuple(map(tuple, rows))
        self.rows = len(self.entries)
        self.cols = cols
        return self

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

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
        a = [list(r) for r in self.entries]
        sign = prev = 1
        for k in range(n):
            pr = next((i for i in range(k, n) if a[i][k]), -1)
            if pr < 0:
                return 0
            if pr != k:
                a[k], a[pr] = a[pr], a[k]
                sign = -sign
            top = a[k]
            p = top[k]
            # every update divides exactly by the previous pivot
            for row in a[k + 1 :]:
                x = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * p - x * top[j]) // prev
            prev = p
        return sign * prev

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

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


def _hermite(
    rows: list[list[int]], width: int | None = None, positive: bool = True
) -> list[int]:
    """Row Hermite normal form of ``rows`` in place; returns the pivot columns.

    Each column's pivot comes from least-remainder Euclid steps over the
    rows not yet used; it is made positive, and the entries above it
    are reduced into [0, pivot), which keeps them small (Cohen, GTM 138,
    Alg. 2.4.5; Kannan and Bachem 1979).  With ``positive`` false the
    pivot keeps its sign and the entries above it have the same bound
    in absolute value; ``_smith_diagonal`` passes false and fixes the
    signs once at the end.  Pivots are searched only in the first
    ``width`` columns (all of them by default), so columns appended past
    ``width``, such as the transform rows of ``smith_normal_form``, just
    record the row operations.  Rows past the last pivot are zero in
    those columns.  ``integer_kernel`` and the kernel-row pass of
    ``smith_normal_form`` use the default positive form.
    """
    n = len(rows)
    pivots: list[int] = []
    for j in range((len(rows[0]) if rows else 0) if width is None else width):
        k = len(pivots)
        if k == n:
            break
        sizes = [abs(row[j]) for row in rows[k:]]
        least = min(filter(None, sizes), default=0)
        if not least:
            continue
        best = k + sizes.index(least)
        while best >= 0:
            rows[k], rows[best] = rows[best], rows[k]
            top = rows[k]
            p = top[j]
            # remainders are at most |p|/2, so the next pivot is the least
            # of them
            best, least, p2 = -1, abs(p), 2 * p
            for i in range(k + 1, n):
                row = rows[i]
                x = row[j]
                if x:
                    q = (2 * x + p) // p2
                    if q:
                        row = rows[i] = [a - q * b for a, b in zip(row, top)]
                        x = row[j]
                    if x and abs(x) < least:
                        best, least = i, abs(x)
        if positive and top[j] < 0:
            top = rows[k] = [-x for x in top]
        p = top[j]
        for i in range(k):
            q = rows[i][j] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], top)]
        pivots.append(j)
    return pivots


def _identity_rows(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _smith_diagonal(
    block, width: int, u: list[list[int]], vt: list[list[int]]
) -> list[int]:
    """Nonzero Smith diagonal of the ``width``-column rows ``block``.

    The row Hermite form of the block gives a triangular block; the row
    Hermite form of its transpose gives the next; the two passes
    alternate until the block is diagonal (Kannan and Bachem, SIAM J.
    Comput. 8, 1979).  Every pass reduces the entries above its pivots,
    so entries stay near the size of the minors of the block.  Signs
    are then made positive and extended-gcd steps on pairs,
    diag(a, b) -> diag(g, ab/g), make the diagonal a divisibility chain.
    ``u`` and ``vt`` hold one row per block row and per block column;
    each step applies to them what it does to the rows or columns of
    the block, in place, so empty rows track nothing and the identity
    rows track the transforms u and v^T of ``smith_normal_form``.
    """
    # sides[0] is u and sides[1] is v^T; a pass acts on the rows of the
    # block and on the same rows of sides[turn]
    sides = [u, vt]
    turn = 0
    while True:
        side = sides[turn]
        rows = [[*x, *y] for x, y in zip(block, side)]
        rank = len(_hermite(rows, width, positive=False))
        side[: len(rows)] = [row[width:] for row in rows]
        block = [row[:width] for row in rows[:rank]]
        if all(row[i] and row.count(0) == width - 1 for i, row in enumerate(block)):
            break
        block = [list(col) for col in zip(*block)]
        width = rank
        turn ^= 1
    # The block is diagonal from (0, 0) on.  Signs are fixed on u, then
    # pairs of diagonal entries on the chain.
    diag = [block[i][i] for i in range(rank)]
    for i, x in enumerate(diag):
        if x < 0:
            u[i] = [-y for y in u[i]]
            diag[i] = -x
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = diag[i], diag[j]
            if a == 1:
                break
            if b % a == 0:
                continue
            # x*a + y*b = g; rows (x, y), (-b/g, a/g) and columns
            # (1, 1), (-y*b/g, x*a/g) take diag(a, b) to diag(g, ab/g)
            g = gcd(a, b)
            ag, bg = a // g, b // g
            x = pow(ag, -1, bg)
            y = (g - x * a) // b
            ui, uj = u[i], u[j]
            u[i] = [x * p + y * q for p, q in zip(ui, uj)]
            u[j] = [ag * q - bg * p for p, q in zip(ui, uj)]
            vi, vj = vt[i], vt[j]
            vt[i] = [p + q for p, q in zip(vi, vj)]
            vt[j] = [x * ag * q - y * bg * p for p, q in zip(vi, vj)]
            diag[i], diag[j] = g, ag * b
    return diag


def smith_normal_form(
    m: IntegerMatrix,
) -> tuple[IntegerMatrix, IntegerMatrix, IntegerMatrix]:
    """Return (u, d, v) with u*m*v = d, u and v unimodular, d diagonal.

    The diagonal is nonnegative with its zeros last, and its nonzero
    entries form a divisibility chain d1 | d2 | ....  It comes from
    alternating row Hermite forms of m and its transpose, run on
    [m | I] and [block^T | I] so that the identity columns record u and
    v (Kannan and Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138, Alg.
    2.4.5 and 2.4.14), and extended-gcd steps on pairs put it on the
    chain.  Where a transform entry still exceeds the Hadamard bound of
    m, a Hermite pass on the kernel rows of u or v^T, with the other
    rows reduced modulo its pivots, shrinks it.  All arithmetic is
    exact, so the routine is total on any integer matrix, including
    empty ones.  Callers that need only the diagonal or a kernel use
    ``group_from_relations`` or ``integer_kernel``, which build no
    transform.

    >>> m = IntegerMatrix([[2, 0], [0, 3]])
    >>> u, d, v = smith_normal_form(m)
    >>> d.diagonal()
    (1, 6)
    >>> (u @ m) @ v == d
    True
    """
    nr, nc = m.rows, m.cols
    u, vt = _identity_rows(nr), _identity_rows(nc)
    diag = _smith_diagonal(m.entries, nc, u, vt)
    rank = len(diag)
    # u and v^T are fixed only up to adding kernel rows to the other rows.
    # Where an entry outgrew the Hadamard bound of m, a Hermite pass on
    # the kernel rows and a reduction of the other rows modulo its pivots
    # bring the transform back near the size of the minors of m.
    bound = 0
    for side in (u, vt):
        if len(side) == rank:
            continue
        if not bound:
            bound = prod(n for row in m.entries if (n := sum(map(mul, row, row))))
        if max(map(abs, chain.from_iterable(side))) ** 2 > bound:
            kernel = side[rank:]
            pivots = _hermite(kernel)
            for row, col in zip(kernel, pivots):
                p = row[col]
                for i in range(rank):
                    q = side[i][col] // p
                    if q:
                        side[i] = [x - q * y for x, y in zip(side[i], row)]
            side[rank:] = kernel
    d = [[0] * nc for _ in range(nr)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return (
        IntegerMatrix._of_rows(u, nr),
        IntegerMatrix._of_rows(d, nc),
        IntegerMatrix._of_rows(zip(*vt), nc),
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
        """Canonical form of a direct sum of cyclic groups (0 means Z).

        Each distinct order is factored once; connected sums list the
        same few orders k times over.
        """
        rank = 0
        primary: dict[int, list[int]] = {}
        for n, count in Counter(abs(int(n)) for n in orders).items():
            if n == 0:
                rank += count
            elif n > 1:
                for p, e in factorint(n).items():
                    primary.setdefault(p, []).extend([e] * count)
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

    def primary_exponents(self) -> dict[int, tuple[int, ...]]:
        """Per-prime exponent partitions of the torsion part, descending."""
        out: dict[int, list[int]] = {}
        for d in self.invariant_factors:
            for p, e in factorint(d).items():
                out.setdefault(p, []).append(e)
        return {p: tuple(sorted(es, reverse=True)) for p, es in sorted(out.items())}

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
        """The group of ``{"rank": r, "torsion": [d, ...]}`` in canonical form.

        Strict: no other key, and integers only, bools refused; a missing
        key raises KeyError, any other misfit ValueError or TypeError.
        """
        rank, torsion = record["rank"], record["torsion"]
        types = {type(rank), *map(type, torsion)} if type(torsion) is list else None
        if len(record) != 2 or types != {int}:
            raise ValueError("expected {'rank': r, 'torsion': [d, ...]} in integers only")
        return cls(rank, tuple(torsion))

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


def group_from_relations(generators: int, relations) -> FgAbGroup:
    """Canonical form of Z^generators / (row span of the relation matrix).

    The invariant factors are the nonzero Smith diagonal of the relation
    matrix, which ``smith_normal_form`` reads from alternating row
    Hermite forms of the matrix and its transpose, with extended-gcd
    steps for the divisibility chain (Kannan and Bachem, SIAM J. Comput.
    8, 1979; Cohen, GTM 138, Alg. 2.4.14).  Here the same loop runs
    with no transform attached; the free rank is the number of
    generators minus the length of the diagonal.

    >>> print(group_from_relations(3, [[2, 4, 0], [0, 6, 0]]))
    Z + Z_2 + Z_6
    >>> print(group_from_relations(2, [[0, 6]]))
    Z + Z_6
    """
    rel = (
        relations
        if isinstance(relations, IntegerMatrix)
        else IntegerMatrix(relations, cols=generators)
    )
    if rel.cols != generators:
        raise DimensionMismatch(
            f"relation matrix has {rel.cols} columns for {generators} generators"
        )
    diag = _smith_diagonal(rel.entries, generators, [[]] * rel.rows, [[]] * generators)
    return FgAbGroup(generators - len(diag), tuple(d for d in diag if d != 1))


def integer_kernel(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : m*x = 0}, in Hermite normal form.

    Column-reduces [m; I], that is, takes the row Hermite form of
    [m^T | I] (Cohen, GTM 138, Alg. 2.4.5; Kannan and Bachem 1979).  The
    rows whose pivot lies in the identity block have a zero m-part, and
    since the row operations are unimodular their identity parts span
    the whole kernel.  No transform is built.

    >>> integer_kernel(IntegerMatrix([[1, 2, 3]]))
    [(1, 1, -1), (0, 3, -2)]
    """
    r, c = m.rows, m.cols
    rows = [list(m.column(j)) + [int(i == j) for i in range(c)] for j in range(c)]
    pivots = _hermite(rows)
    return [tuple(row[r:]) for row, col in zip(rows, pivots) if col >= r]


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


def _quotient_of_spans(
    gens: list[tuple[int, ...]], rels: list[tuple[int, ...]], ambient: int
) -> FgAbGroup:
    """Group (span(gens) + span(rels)) / span(rels) inside Z^ambient."""
    all_gens = list(gens) + list(rels)
    s = len(all_gens)
    if s == 0:
        return FgAbGroup.zero()
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
    block = [list(row) + [-r[i] for r in rel_b] for i, row in enumerate(f.matrix.entries)]
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
