"""The four workloads: seeded inputs, the op each one times, and its check.

A workload hands out inputs in rounds.  Every round of a workload has the
same make-up (the same strata of `k`, the same matrix shapes), so a run
that stops at a round boundary measures the same mix of work whatever
its seed; the seed only decides which values fill each stratum and in
which order they run.

Each `check_*` function returns a list of problems, empty when the
output is correct.  Checks run outside the timer.
"""

from __future__ import annotations

import functools
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from math import gcd, prod
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, bool], list]  # (rng, tiny) -> inputs
    op: Callable  # (input, tiny) -> output
    check: Callable  # (input, output) -> list[str]
    round_s: float  # nominal round time at full size, for traced round counts
    in_process: bool = True


# -- cohomotopy-rows ---------------------------------------------------------

# an odd number of k values, so the median op is the middle k's row and
# not the midpoint between two rows of different cost
ROW_K = range(7, 14)
ROW_K_TINY = range(2, 4)


def _row_round(rng, tiny):
    ks = list(ROW_K_TINY if tiny else ROW_K)
    rng.shuffle(ks)
    return ks


def row_op(k, tiny=False):
    """One row of the cohomotopy table: pi_s^0 for n = 3..8, S^t for n = 3..7."""
    from cpsums import cohomotopy, surgery

    groups = [cohomotopy.pi_s0_connected_sum(k, n).group for n in range(3, 9)]
    exotic = [surgery.structure_set(k, n).exotic_count for n in range(3, 8)]
    return groups, exotic


def check_row(k, out):
    from cpsums.cohomotopy import expected_closed_form
    from cpsums.extensions import AmbiguousResult
    from cpsums.fgab import FgAbGroup

    groups, exotic = out
    problems = []
    for n, group in zip(range(3, 8), groups):
        if group != expected_closed_form(k, n):
            problems.append(f"pi_s0(k={k}, n={n}) = {group}")
    top = groups[5] if len(groups) == 6 else None
    expected_top = {
        FgAbGroup(0, (2,) * (3 * k)),
        FgAbGroup(0, (2,) * (3 * k - 2) + (4,)),
    }
    if not isinstance(top, AmbiguousResult) or set(top.candidates) != expected_top:
        problems.append(f"pi_s0(k={k}, n=8) = {top}, expected both candidates")
    expected_exotic = [0, 2**k, 2 ** (k - 2) if k >= 2 else None, 0, 0]
    if list(exotic) != expected_exotic:
        problems.append(f"exotic counts {exotic} != {expected_exotic}")
    return problems


# -- ko-basis-grid -----------------------------------------------------------

KO_STRATA = [range(lo, min(lo + 8, 65)) for lo in range(2, 65, 8)]
KO_N = range(2, 34)
KO_N_TINY = range(2, 6)


def _ko_round(rng, tiny):
    if tiny:
        return [rng.choice((2, 3))]
    ks = [rng.choice(stratum) for stratum in KO_STRATA]
    rng.shuffle(ks)
    return ks


def ko_op(k, tiny=False):
    """KO^-s(#_k CP^n) with rendered bases for s = 0..7, n = 2..33, each
    passed through `verify_sandwich`, plus K^0 for the same n."""
    from cpsums import ktheory

    ns = KO_N_TINY if tiny else KO_N
    rows = []
    for s in range(8):
        for n in ns:
            result = ktheory.ko_group(s, k, n)
            labels = [str(b) for b in result.basis]
            report = ktheory.verify_sandwich(s, k, n, group=result.group)
            rows.append((s, n, result.group, labels, report.passed, report.detail))
    k0 = [ktheory.complex_k0(k, n) for n in ns]
    return rows, [(r.n, r.group, len(r.basis)) for r in k0]


def check_ko(k, out):
    from cpsums.fgab import FgAbGroup

    rows, k0 = out
    problems = []
    for s, n, group, labels, passed, detail in rows:
        if not passed:
            problems.append(f"KO^-{s}(k={k}, n={n}) = {group} fails the sandwich: {detail}")
        # odd degrees carry no printed basis; even degrees label every summand
        if (labels or s % 2 == 0) and len(labels) != group.ngens:
            problems.append(
                f"KO^-{s}(k={k}, n={n}): {len(labels)} labels for {group.ngens} summands"
            )
    for n, group, nbasis in k0:
        if group != FgAbGroup.free(k * (n - 1) + 1) or nbasis != group.ngens:
            problems.append(f"K^0(k={k}, n={n}) = {group} with {nbasis} labels")
    return problems


# -- snf-relations -----------------------------------------------------------

# Matrices of dimension 18..24 have a heavy-tailed SNF cost: a few take
# 10-100x the median.  Drawn per seed, a run would hold zero or several
# of them and its throughput would follow that count.  So every round
# repeats one fixed set of large matrices, positions TAIL_PICKS of the
# TAIL_SEED stream: the first six as they come, plus positions 36 and 40,
# two 23x23 and 24x21 cases whose transforms reach about 10^5 bits and
# whose op took 0.4-0.55 s when the benchmark was written.  The seed
# draws the ROUND_CASES matrices of dimension 15..20 and every
# homomorphism of a round.
TAIL_SEED = 0
TAIL_PICKS = (0, 1, 2, 3, 4, 5, 36, 40)
ROUND_CASES = 16
MAX_ENTRY = 20
KINDS = ("square", "rect", "deficient")


@dataclass(frozen=True)
class SnfCase:
    rows: tuple  # relation matrix entries
    cols: int
    domain: tuple  # (free rank, invariant factors) of the homomorphism domain
    codomain: tuple
    hom_rows: tuple  # homomorphism matrix, codomain gens x domain gens
    primes: tuple  # moduli for the fingerprint checks


def _chain(rng, length):
    """A divisibility chain of `length` small invariant factors."""
    d = rng.choice((2, 3))
    out = []
    for _ in range(length):
        out.append(d)
        d *= rng.choice((1, 1, 1, 2, 3))
    return tuple(out)


def _is_prime64(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:  # deterministic for n < 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime61(rng):
    while True:
        candidate = rng.getrandbits(61) | (1 << 60) | 1
        if _is_prime64(candidate):
            return candidate


def make_snf_case(rng, lo, hi, kind):
    r = rng.randint(lo, hi)
    c = rng.randint(lo, hi) if kind == "rect" else r
    if kind == "deficient":
        # rows past the rank are sums of two earlier rows; halve the
        # entry range so the sums stay within MAX_ENTRY
        rank = rng.randint(max(2, r - 4), r - 1)
        half = MAX_ENTRY // 2
        base = [[rng.randint(-half, half) for _ in range(c)] for _ in range(rank)]
        extra = []
        for _ in range(r - rank):
            a, b = rng.sample(range(rank), 2)
            extra.append([x + y for x, y in zip(base[a], base[b])])
        rows = base + extra
        rng.shuffle(rows)
    else:
        rows = [[rng.randint(-MAX_ENTRY, MAX_ENTRY) for _ in range(c)] for _ in range(r)]
    # homomorphism Z^fa + T_A -> Z^fb + T_B on the top-left block of the
    # matrix, made well defined: a torsion generator of order d sends
    # nothing to a free coordinate and only multiples of e/gcd(d, e) to
    # an order-e one.  hom_kernel runs SNF again on kernel bases whose
    # entries have already grown, so at 5 generators an occasional map
    # takes 0.5 s and at 8 some take minutes: the map keeps to 3-4.
    hc, hr = min(c, rng.randint(3, 4)), min(r, rng.randint(3, 4))
    finite = rng.random() < 0.5
    ta = hc if finite else rng.randint(0, hc)
    tb = hr if finite else rng.randint(0, hr)
    dom = (hc - ta, _chain(rng, ta))
    cod = (hr - tb, _chain(rng, tb))
    dom_orders = (0,) * dom[0] + dom[1]
    cod_orders = (0,) * cod[0] + cod[1]
    hom = []
    for i, e in enumerate(cod_orders):
        hom_row = []
        for j, d in enumerate(dom_orders):
            x = rows[i][j]
            if d:
                x = 0 if e == 0 else x * (e // gcd(d, e))
            hom_row.append(x)
        hom.append(tuple(hom_row))
    return SnfCase(
        rows=tuple(tuple(row) for row in rows),
        cols=c,
        domain=dom,
        codomain=cod,
        hom_rows=tuple(hom),
        primes=(_prime61(rng), _prime61(rng)),
    )


@functools.cache
def tail_cases():
    rng = random.Random(TAIL_SEED)
    stream = [make_snf_case(rng, 18, 24, KINDS[i % 3]) for i in range(max(TAIL_PICKS) + 1)]
    return tuple(stream[i] for i in TAIL_PICKS)


def _snf_round(rng, tiny):
    if tiny:
        return [make_snf_case(rng, 3, 5, kind) for kind in KINDS]
    kinds = [KINDS[i % 3] for i in range(ROUND_CASES)]
    cases = [make_snf_case(rng, 15, 20, kind) for kind in kinds] + list(tail_cases())
    rng.shuffle(cases)
    return cases


def snf_op(case, tiny=False):
    """SNF with transforms, the presented group, and ker/coker of a map."""
    from cpsums.fgab import (
        FgAbGroup, Homomorphism, IntegerMatrix, group_from_relations,
        hom_cokernel, hom_kernel, smith_normal_form,
    )

    m = IntegerMatrix(case.rows, cols=case.cols)
    u, d, v = smith_normal_form(m)
    presented = group_from_relations(case.cols, m)
    domain = FgAbGroup(*case.domain)
    f = Homomorphism(
        domain, FgAbGroup(*case.codomain), IntegerMatrix(case.hom_rows, cols=domain.ngens)
    )
    return u, d, v, presented, hom_kernel(f), hom_cokernel(f)


def _mat_mod(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def _det_mod(a, p):
    a = [list(row) for row in a]
    n = len(a)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def check_snf(case, out):
    """u*m*v = d and |det u| = |det v| = 1 are checked modulo two seeded
    61-bit primes (exact products of the transforms, whose entries reach
    10^5 bits, would cost far more than the op); everything else is exact.

    A wrong product or determinant passes only if each prime divides the
    error, a nonzero integer below 2^(10^7): fewer than 2*10^5 of the
    ~2^55 primes of this size do, so each prime misses it with
    probability below 10^-11.
    """
    from cpsums.fgab import FgAbGroup

    u, d, v, presented, ker, coker = out
    r, c = len(case.rows), case.cols
    problems = []
    if u.shape != (r, r) or d.shape != (r, c) or v.shape != (c, c):
        return [f"shapes u {u.shape}, d {d.shape}, v {v.shape} for a {r}x{c} matrix"]
    for i, row in enumerate(d.entries):
        if any(x for j, x in enumerate(row) if j != i):
            problems.append(f"d has an off-diagonal entry in row {i}")
            break
    diag = d.diagonal()
    nonzero = [x for x in diag if x]
    if any(x < 0 for x in diag) or any(diag[len(nonzero):]):
        problems.append(f"diagonal {diag} is not nonnegative with zeros last")
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        problems.append(f"diagonal {diag} is not a divisibility chain")
    signs = set()
    for p in case.primes:
        ur = [[x % p for x in row] for row in u.entries]
        vr = [[x % p for x in row] for row in v.entries]
        if _mat_mod(_mat_mod(ur, case.rows, p), vr, p) != [
            [x % p for x in row] for row in d.entries
        ]:
            problems.append(f"u*m*v != d modulo {p}")
        for name, t in (("u", ur), ("v", vr)):
            det = _det_mod(t, p)
            if det not in (1, p - 1):
                problems.append(f"det {name} = {det} modulo {p}, not a unit sign")
            signs.add((name, det == 1))
    if len(signs) != 2:
        problems.append("the sign of det u or det v differs between primes")
    expected = FgAbGroup(c - len(nonzero), tuple(x for x in nonzero if x != 1))
    if presented != expected:
        problems.append(f"group_from_relations = {presented}, SNF gives {expected}")
    fa, ta = case.domain
    fb, tb = case.codomain
    if ker.free_rank - coker.free_rank != fa - fb:
        problems.append(
            f"rank ker {ker.free_rank} - rank coker {coker.free_rank} != {fa} - {fb}"
        )
    if fa == 0 and fb == 0 and ker.torsion_order() * prod(tb) != prod(ta) * coker.torsion_order():
        problems.append(f"|ker| * |B| != |A| * |coker| for ker {ker}, coker {coker}")
    return problems


# -- verify-cli --------------------------------------------------------------

SUITE_NAMES = ("snf", "oracle", "tables", "sandwich", "surgery")
SUITE_LINE = re.compile(r"^suite (\w+): (\d+) cases, (\d+) failures \[(\w+)\]$")
CHILD_TIMEOUT_S = 150


def _verify_round(rng, tiny):
    return [rng.randrange(1, 10**6)]


def verify_argv(seed, tiny=False):
    argv = ["verify", "--suite", "all", "--seed", str(seed)]
    if tiny:
        argv += ["--max-order", "8", "--cases", "10"]
    return argv


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def verify_op(seed, tiny=False, prefix=None):
    """A fresh `python -m cpsums.cli verify --suite all` process.

    `prefix` replaces `-m cpsums.cli` (the traced stand-in, verify_child.py).
    """
    cmd = [sys.executable] + (prefix or ["-m", "cpsums.cli"]) + verify_argv(seed, tiny)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def check_verify(seed, out):
    code, stdout = out
    problems = [] if code == 0 else [f"exit code {code}"]
    seen = {}
    for line in stdout.splitlines():
        match = SUITE_LINE.match(line.strip())
        if match:
            seen[match.group(1)] = match
    for name in SUITE_NAMES:
        match = seen.get(name)
        if match is None:
            problems.append(f"suite {name} did not report")
        elif int(match.group(2)) < 1 or match.group(3) != "0" or match.group(4) != "ok":
            problems.append(f"suite {name}: {match.group(0)}")
    return problems


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohomotopy-rows", _row_round, row_op, check_row, round_s=0.74),
        Workload("ko-basis-grid", _ko_round, ko_op, check_ko, round_s=1.8),
        Workload("snf-relations", _snf_round, snf_op, check_snf, round_s=1.35),
        Workload("verify-cli", _verify_round, verify_op, check_verify, round_s=5.5,
                 in_process=False),
    )
}
