"""Short exact sequences 0 -> A -> G -> B -> 0 of f.g. abelian groups.

Each unknown term is solved prime by prime: a p-group of type lam has a
subgroup of type mu with quotient of type nu exactly when the
Littlewood-Richardson coefficient c^lam_{mu,nu} is nonzero (Hall;
Macdonald, *Symmetric Functions and Hall Polynomials*, Ch. II (4.3)).
`middle_candidates` lists every G, testing only the shapes lam in the
dominance interval [mu u nu, mu + nu]: when c^lam_{mu,nu} is nonzero,
lam dominates the union mu u nu (all parts of both, sorted) and is
dominated by the sum mu + nu (added part by part); Macdonald, Ch. I
Sec. 9.  `outer_candidates_between` lists every B for given A and G,
which by the symmetry of c is also every A for given G and B.  Both
spend at most `EXTENSION_WORK_LIMIT` on listing shapes, before any
tableau test.  The independent oracle `brute_force_middle_terms`
instead enumerates the candidate groups element by element and searches
for an actual subgroup with the right quotient.

`resolve` intersects the candidate list with splitting filters (no
element of a given order, prescribed localization, ...) and either
returns the unique survivor or an `AmbiguousResult` listing all of
them; it never picks silently.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, product, zip_longest
from math import gcd, lcm, prod

from .fgab import FgAbGroup, factorint, is_prime


class ExtensionSizeError(ValueError):
    """Too large for the oracle (|A| * |B| > 2**12) or the LR route."""


class OracleBudgetError(RuntimeError):
    """Subgroup enumeration exceeded its work budget."""


class EmptyAfterFiltering(ValueError):
    """All middle-term candidates were rejected; the filters are inconsistent."""


class InexactSequence(ValueError):
    """The data contradict an exact sequence: no term, or several, fit where
    exactness allows exactly one (a stem quotient, im(eta), a PL/O row)."""


ORACLE_ORDER_LIMIT = 2**12
# work units for one subgroup census: coset elements walked plus
# translation-row entries built
ORACLE_BUDGET = 80_000_000
# LR work units per enumeration (shape cells, candidate groups); pi_s^0 needs < 10**6
EXTENSION_WORK_LIMIT = 2_000_000


def _sub_partitions(lam: tuple[int, ...], size: int):
    """Yield the partitions x of `size` with x_i <= lam_i, in descending
    lexicographic order, one run of equal parts at a time: the recursion is
    as deep as lam's largest part, not its part count (up to 10**5).  A run
    goes in only if the slots after it can take the rest, counted from
    columns[c] = #{j : lam_j > c}, so no branch is a dead end."""
    columns = [sum(part > c for part in lam) for c in range(max(lam, default=0))]

    def runs(i: int, rest: int, below: int):
        if rest == 0:
            yield ()
        for v in range(min(below - 1, rest), 0, -1):
            for m in range(min(columns[v - 1] - i, rest // v), 0, -1):
                if rest - m * v > sum(max(0, c - i - m) for c in columns[: v - 1]):
                    break
                for tail in runs(i + m, rest - m * v, v):
                    yield (v,) * m + tail

    if 0 <= size <= sum(lam):
        yield from runs(0, size, len(columns) + 1)


def partitions(n: int):
    """Yield all partitions of n as descending tuples.

    >>> sorted(partitions(4))
    [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    yield from _sub_partitions((n,) * n, n)


def _contains(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def lr_positive(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> bool:
    """Whether the Littlewood-Richardson coefficient c^lam_{mu,nu} is nonzero.

    Searches for a semistandard skew tableau of shape lam/mu and content
    nu whose reverse reading word is a lattice word.  The shapes come
    from `dominance_interval` and can be large: in the connected-sum
    sequences nu is a column of ones and |lam| grows linearly in k
    (about 300 cells at k = 100).  Each cell is offered only the entries
    its row and column neighbours allow, which for such nu leaves one,
    and the search runs without recursion, so thousands of cells fit.
    """
    if sum(lam) != sum(mu) + sum(nu):
        return False
    if not _contains(lam, mu) or not _contains(lam, nu):
        return False
    if not nu:
        return lam == mu
    mu_padded = mu + (0,) * (len(lam) - len(mu))
    # reverse reading order: rows top to bottom, right to left within a row
    cells = [
        (r, c)
        for r in range(len(lam))
        for c in range(lam[r] - 1, mu_padded[r] - 1, -1)
    ]
    nvals = len(nu)
    counts = [0] * (nvals + 1)
    grid: dict[tuple[int, int], int] = {}
    # depth-first over the cells; `start` is the least entry not yet
    # tried in the current cell
    idx, start = 0, 1
    while idx < len(cells):
        r, c = cells[idx]
        right = grid.get((r, c + 1), nvals)
        upper = grid.get((r - 1, c), 0) if r > 0 and c >= mu_padded[r - 1] else 0
        for v in range(max(start, upper + 1), right + 1):
            if counts[v] == nu[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            grid[(r, c)] = v
            counts[v] += 1
            idx, start = idx + 1, 1
            break
        else:
            if idx == 0:
                return False
            idx -= 1
            v = grid.pop(cells[idx])
            counts[v] -= 1
            start = v + 1
    return True


def all_abelian_groups_of_order(n: int) -> list[FgAbGroup]:
    """Every abelian group of order n, canonically sorted.

    >>> [str(g) for g in all_abelian_groups_of_order(8)]
    ['Z_2^3', 'Z_2 + Z_4', 'Z_8']
    """
    if n < 1:
        raise ValueError("order must be positive")
    factored = factorint(n)
    primes = sorted(factored)
    choices = [list(partitions(factored[p])) for p in primes]
    groups = [
        FgAbGroup.from_primary(dict(zip(primes, combo)))
        for combo in product(*choices)
    ]
    return sorted(groups)


# -- candidate enumeration (Littlewood-Richardson route) ---------------------


def dominance_interval(mu: tuple[int, ...], nu: tuple[int, ...]):
    """Yield the partitions lam of |mu| + |nu| with mu u nu <= lam <= mu + nu
    in dominance order, as descending tuples.

    mu u nu sorts the parts of both, mu + nu adds them part by part.
    Every lam with c^lam_{mu,nu} != 0 lies in this interval (Macdonald,
    Ch. I Sec. 9), so it is a complete candidate set for `lr_positive`.
    The search keeps each prefix sum lam_1 + ... + lam_i between those of
    the two bounds, so lam has at most len(mu) + len(nu) parts.

    >>> list(dominance_interval((1,), (1, 1)))
    [(2, 1), (1, 1, 1)]
    """
    lower = list(accumulate(sorted(mu + nu, reverse=True)))
    upper = list(accumulate(a + b for a, b in zip_longest(mu, nu, fillvalue=0)))
    total = lower[-1] if lower else 0
    upper += [total] * (len(lower) - len(upper))
    length = len(lower)
    if not length:
        yield ()
        return
    # depth-first without recursion, since lam may have thousands of
    # parts: lam holds the parts chosen so far, sums[i] = lam_1 + ... +
    # lam_i, and part is the next part to try at slot i = len(lam).
    # Parts are tried in descending order, so the first one that misses
    # the lower bound, or cannot fill the remaining slots, ends the slot.
    lam: list[int] = []
    sums = [0]
    part = upper[0]
    while True:
        i = len(lam)
        prefix = sums[i]
        fits = prefix + part >= lower[i] and part * (length - i) >= total - prefix
        if part > 0 and fits:
            if prefix + part == total:
                yield (*lam, part)
                part -= 1
            else:
                lam.append(part)
                sums.append(prefix + part)
                part = min(part, upper[i + 1] - prefix - part)
        elif lam:
            sums.pop()
            part = lam.pop() - 1
        else:
            return

class _Budget:
    __slots__ = ("left", "error")

    def __init__(self, amount: int = EXTENSION_WORK_LIMIT, error: Exception | None = None):
        self.left = amount
        self.error = error or ExtensionSizeError(f"the LR route needs over {amount} work units")

    def spend(self, amount: int):
        self.left -= amount
        if self.left < 0:
            raise self.error


def _per_prime_product(left, right, search, budget: _Budget, free_rank: int = 0):
    """Z^free_rank + sum_p (p-group of type x_p) for each x_p that search(lam_p,
    nu_p) = (shapes, keep) yields and keeps, lam_p and nu_p the p-types of left
    and right.  Shape cells, then the candidate product, are spent first."""
    lams, nus = left.primary_exponents(), right.primary_exponents()
    primes = sorted(lams.keys() | nus.keys())
    listed, keeps = [], []
    for p in primes:
        shapes, keep = search(lams.get(p, ()), nus.get(p, ()))
        listed.append([])
        for shape in shapes:
            budget.spend(sum(shape))
            listed[-1].append(shape)
        keeps.append(keep)
    budget.spend(prod(map(len, listed)))
    return sorted(
        FgAbGroup.from_primary(dict(zip(primes, combo)), free_rank=free_rank)
        for combo in product(*map(filter, keeps, listed))
    )


def _middle_search(mu: tuple[int, ...], nu: tuple[int, ...]):
    return dominance_interval(mu, nu), partial(lr_positive, mu=mu, nu=nu)


def _outer_search(lam: tuple[int, ...], nu: tuple[int, ...]):
    # the tableau fills lam/x with content nu: |nu| cells, not |x|
    return _sub_partitions(lam, sum(lam) - sum(nu)), partial(lr_positive, lam, nu=nu)


def _short_cotype_search(lam: tuple[int, ...], bound: tuple[int, ...]):
    """Every shape x inside lam with |x| >= |lam| - |bound|, kept if the
    p-group of type lam has a subgroup of type x whose cotype lies inside
    bound; a smaller x leaves a cotype of more cells than bound has."""
    total = sum(lam)
    sizes = range(max(0, total - sum(bound)), total + 1)
    shapes = (x for size in sizes for x in _sub_partitions(lam, size))

    def keep(x):
        return any(lr_positive(lam, x, nu) for nu in _sub_partitions(bound, total - sum(x)))

    return shapes, keep


def middle_candidates_between(sub: FgAbGroup, quot: FgAbGroup) -> list[FgAbGroup]:
    """All isomorphism classes of middle terms of 0 -> sub -> G -> quot -> 0.

    A free quotient splits off.  Write sub = Z^a + T and B = tors(quot).
    Then G = Z^(a + rank quot) + M, where C = M/T is a subgroup of B with
    B/C a quotient of Z^a, so of at most a parts, and M is a middle term
    of T by C.  Per prime, M is decided by `lr_positive` on the shapes of
    the dominance interval [mu u nu, mu + nu], which only prunes.
    """
    rank, a = sub.free_rank + quot.free_rank, sub.free_rank
    budget = _Budget()
    if not a:  # then C = B
        return _per_prime_product(sub, quot, _middle_search, budget, rank)
    # a type of at most a parts lies inside that of B's a largest factors
    widest = FgAbGroup.from_cyclic_orders(*quot.invariant_factors[-a:])
    out = set()
    for c in _per_prime_product(quot.torsion(), widest, _short_cotype_search, budget):
        out.update(_per_prime_product(sub.torsion(), c, _middle_search, budget, rank))
    return sorted(out)


def outer_candidates_between(group: FgAbGroup, known: FgAbGroup) -> list[FgAbGroup]:
    """Every X with 0 -> known -> group -> X -> 0, for finite groups; by the
    symmetry of c, also every X with 0 -> X -> group -> known -> 0.  Per
    prime, for group of type lam and known of type nu, X has a type x
    inside lam with |x| = |lam| - |nu| and c^lam_{x,nu} != 0."""
    if not (group.is_finite and known.is_finite):
        raise ValueError(f"the outer solver needs finite groups, got {group} and {known}")
    if known.is_trivial:
        return [group]
    return _per_prime_product(group, known, _outer_search, _Budget())


# -- brute-force oracle ------------------------------------------------------


def _element_order(vec: tuple[int, ...], orders: tuple[int, ...]) -> int:
    return lcm(*(o // gcd(o, x) for o, x in zip(orders, vec))) if vec else 1


@lru_cache(maxsize=None)
def _subgroup_census(p: int, lam: tuple[int, ...]) -> frozenset:
    """Every (subgroup type, quotient type) realized inside the p-group
    of type lam, by exhaustive subgroup enumeration.

    Elements are the integers 0..N-1 (mixed radix over the cyclic
    factors, 0 the identity); subgroups are bitmasks over them, grown
    one cyclic generator at a time and deduplicated in a `seen` set.
    The inner loop works on integer tables only:

    (a) translation rows: shift[g][i] is the index of element i + g.  A
        row is built, and N charged to the budget, the first time g is
        used as a generator; there is one candidate g per cyclic
        subgroup and never a full N x N table.
    (b) coset walk: H + <g> is the union of the cosets m*g + H, each one
        the previous coset translated by shift[g], up to the first m
        with m*g in H.  That m is d, the number of cosets.
    (c) generator skip: <g' + H> = <g + H> in G/H iff g' + H = m(g + H)
        with gcd(m, d) = 1, and then H + <g'> = H + <g>.  So for a fixed
        H every g' in such a coset is skipped once H + <g> is built.

    The skip only uses the cyclic structure of G/H; every subgroup is
    still reached by closure and checked element by element, so the
    census stays independent of Littlewood-Richardson and Hall theory.

    A type is recorded as its kill-count vector (|H[p^j]| for j = 1..
    max(lam)), which pins down an abelian p-group of exponent <=
    p^max(lam).  The quotient's vector is |G[c]| * |H & cG| / |H| for
    c = p^j, since x -> cx maps G onto cG with kernel G[c], so exactly
    |G[c]| * |H & cG| elements x have cx in H.
    """
    if not lam:
        return frozenset({((), ())})
    orders = tuple(p**e for e in lam)
    elements = list(product(*(range(o) for o in orders)))
    total = len(elements)
    strides = [prod(orders[i + 1 :]) for i in range(len(orders))]

    def index(vec) -> int:
        return sum(a % o * s for a, o, s in zip(vec, orders, strides))

    def mask_of(items) -> int:
        out = 0
        for i in items:
            out |= 1 << i
        return out

    def indices(columns) -> list[int]:
        """Indices, in element order, of the vectors whose coordinate j
        runs over columns[j]."""
        out = [0]
        for o, column in zip(orders, columns):
            out = [x * o + y for x in out for y in column]
        return out

    # G[c] = {x : cx = 0} and cG, for c = p^j: a coordinate in Z_o is
    # killed by c iff it is a multiple of o / gcd(c, o), and lies in cZ_o
    # iff it is a multiple of gcd(c, o)
    kill_masks, kill_sizes, image_masks = [], [], []
    for j in range(1, lam[0] + 1):
        c = p**j
        killed = indices([range(0, o, o // gcd(c, o)) for o in orders])
        kill_masks.append(mask_of(killed))
        kill_sizes.append(len(killed))
        image_masks.append(mask_of(indices([range(0, o, gcd(c, o)) for o in orders])))

    # one candidate generator per cyclic subgroup: closure only depends
    # on the cyclic subgroup generated, so skip the other generators
    covered = bytearray(total)
    candidates = []
    for i in range(1, total):
        if covered[i]:
            continue
        candidates.append(i)
        vec = elements[i]
        ord_i = _element_order(vec, orders)
        for m in range(2, ord_i):
            if gcd(m, ord_i) == 1:
                covered[index([m * a for a in vec])] = 1

    budget = _Budget(
        ORACLE_BUDGET, OracleBudgetError("subgroup enumeration budget exhausted")
    )
    rows: dict[int, list[int]] = {}

    def shift_row(g: int) -> list[int]:
        row = rows.get(g)
        if row is None:
            budget.spend(total)
            row = indices(
                [[(b + a) % o for b in range(o)] for a, o in zip(elements[g], orders)]
            )
            rows[g] = row
        return row

    def closure(mask: int, members: list[int], g: int):
        """H + <g> as (mask, members), and the mask of the cosets
        m*g + H with gcd(m, d) = 1, whose elements all generate it."""
        shift = shift_row(g)
        out = mask
        out_members = list(members)
        coset_masks = []
        coset = members
        x = g
        while not (mask >> x) & 1:
            budget.spend(len(members))
            coset = [shift[s] for s in coset]
            cm = mask_of(coset)
            coset_masks.append(cm)
            out |= cm
            out_members += coset
            x = shift[x]
        d = len(coset_masks) + 1
        same = 0
        for m, cm in enumerate(coset_masks, start=1):
            if gcd(m, d) == 1:
                same |= cm
        return out, out_members, same

    def type_pair(mask: int, size: int):
        sub_type = tuple((mask & km).bit_count() for km in kill_masks)
        quot_type = tuple(
            ks * (mask & im).bit_count() // size
            for ks, im in zip(kill_sizes, image_masks)
        )
        return sub_type, quot_type

    trivial = 1  # the bitmask of {0}
    seen = {trivial}
    stack = [(trivial, [0])]
    census = set()
    while stack:
        mask, members = stack.pop()
        census.add(type_pair(mask, len(members)))
        skip = mask
        for g in candidates:
            if (skip >> g) & 1:
                continue
            bigger, bigger_members, same = closure(mask, members, g)
            skip |= same
            if bigger not in seen:
                seen.add(bigger)
                stack.append((bigger, bigger_members))
    return frozenset(census)


def _type_counts(p: int, partition: tuple[int, ...], depth: int) -> tuple[int, ...]:
    """Kill-count vector (|H[p^j]| for j = 1..depth) of the p-group of
    the given type."""
    return tuple(
        prod(min(p**j, p**e) for e in partition) for j in range(1, depth + 1)
    )


def _primary_pair_realized(
    p: int, lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]
) -> bool:
    if sum(mu) + sum(nu) != sum(lam):
        return False
    if not lam:
        return True
    # subgroup and quotient types are dominated componentwise; refuting
    # here avoids pointless censuses of huge groups
    if not (_contains(lam, mu) and _contains(lam, nu)):
        return False
    depth = lam[0]
    key = (_type_counts(p, mu, depth), _type_counts(p, nu, depth))
    return key in _subgroup_census(p, lam)


def brute_force_middle_terms(a: FgAbGroup, b: FgAbGroup) -> list[FgAbGroup]:
    """Independent oracle: middle terms of 0 -> a -> G -> b -> 0 for finite
    a, b by exhaustive subgroup enumeration inside every abelian group of
    order |a||b|.

    The enumeration runs on each primary component (a sequence of finite
    abelian groups exists exactly when its p-primary pieces do), with the
    subgroup census cached per component.
    """
    if not (a.is_finite and b.is_finite):
        raise ExtensionSizeError("oracle requires finite groups")
    n = a.torsion_order() * b.torsion_order()
    if n > ORACLE_ORDER_LIMIT:
        raise ExtensionSizeError(f"|a|*|b| = {n} exceeds {ORACLE_ORDER_LIMIT}")
    mu_primary = a.primary_exponents()
    nu_primary = b.primary_exponents()
    out = []
    for g in all_abelian_groups_of_order(n):
        lam_primary = g.primary_exponents()
        if all(
            _primary_pair_realized(
                p,
                lam_primary.get(p, ()),
                mu_primary.get(p, ()),
                nu_primary.get(p, ()),
            )
            for p in lam_primary
        ):
            out.append(g)
    return sorted(out)


# -- sequences, filters, resolution ------------------------------------------


@dataclass(frozen=True)
class AmbiguousResult:
    """Several middle terms survive; the sequence does not determine G."""

    candidates: tuple[FgAbGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(sorted(self.candidates)))

    def __iter__(self):
        return iter(self.candidates)

    def __len__(self):
        return len(self.candidates)

    def __contains__(self, g):
        return g in self.candidates

    def __str__(self):
        return "ambiguous: {" + ", ".join(str(g) for g in self.candidates) + "}"


@dataclass(frozen=True)
class SplittingFilter:
    """Decidable predicate on FgAbGroup used to cut down middle terms.

    Filters compare and hash by their description, which names the
    predicate in full."""

    description: str
    matches: Callable[[FgAbGroup], bool] = field(compare=False, repr=False)

    @classmethod
    def no_element_of_order(cls, n: int) -> "SplittingFilter":
        if n < 2:
            raise ValueError("order filter requires n >= 2")
        return cls(f"no element of order {n}", lambda g: not g.has_element_of_order(n))

    @classmethod
    def localization_at(cls, p: int, equals: FgAbGroup) -> "SplittingFilter":
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(f"localization at {p} equals {equals}", lambda g: g.localized_at(p) == equals)

    @classmethod
    def torsion_equals(cls, t: FgAbGroup) -> "SplittingFilter":
        t = t.torsion()
        return cls(f"torsion subgroup equals {t}", lambda g: g.torsion() == t)

    @classmethod
    def free_rank_equals(cls, r: int) -> "SplittingFilter":
        return cls(f"free rank equals {r}", lambda g: g.free_rank == r)


@dataclass(frozen=True)
class ShortExactSequence:
    """Record of 0 -> sub -> G -> quot -> 0 with G unknown."""

    sub: FgAbGroup
    quot: FgAbGroup
    provenance: str = ""


def middle_candidates(seq: ShortExactSequence) -> list[FgAbGroup]:
    """Complete duplicate-free list of middle terms of the sequence."""
    return middle_candidates_between(seq.sub, seq.quot)


def resolve(
    seq: ShortExactSequence, filters: list[SplittingFilter] | tuple[SplittingFilter, ...]
) -> FgAbGroup | AmbiguousResult:
    """Intersect middle terms with the filters.

    Returns the unique survivor, or an AmbiguousResult carrying all
    survivors.  Raises EmptyAfterFiltering when nothing survives, which
    signals an inconsistent (mistranscribed) filter set.
    """
    survivors = [g for g in middle_candidates(seq) if all(f.matches(g) for f in filters)]
    if not survivors:
        raise EmptyAfterFiltering(
            f"no middle term of 0 -> {seq.sub} -> G -> {seq.quot} -> 0 "
            "satisfies the filters"
        )
    if len(survivors) == 1:
        return survivors[0]
    return AmbiguousResult(tuple(survivors))
