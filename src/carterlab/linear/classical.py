"""Classical matrix groups: generators, forms, and order formulas.

Families: SL/GL over GF(q); Sp(2n, q) preserving the block anti-diagonal
alternating form with the (e_1..e_n, f_n..f_1) basis order, so the
pairing slot of coordinate i is i' = 2n-1-i; SU/GU(3, q) over GF(q^2)
preserving the anti-diagonal hermitian form.  Generating sets are root
elements (transvections) over an additive basis of the field; they are
small rather than minimal, and every published group order is enforced
by tests through the permutation realization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from ..permgrp.sylow import prime_factors
from .gf import FiniteField, field_make
from .matrix import Matrix

_FAMILIES = ("SL", "GL", "Sp", "SU", "GU")


@dataclass(frozen=True)
class ClassicalGroupSpec:
    family: str
    n: int
    q: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unsupported family {self.family}")
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.family == "Sp" and self.n % 2:
            raise ValueError("Sp needs even dimension")
        if self.family in ("SU", "GU") and self.n != 3:
            raise ValueError("only 3-dimensional unitary groups are supported")

    @functools.cached_property
    def field(self) -> FiniteField:
        """GF(q), or GF(q^2) for unitary families; q is split into (p, k)
        on the first read only."""
        p, k = _split_prime_power(self.q)
        if self.family in ("SU", "GU"):
            return field_make(p, 2 * k)
        return field_make(p, k)

    @property
    def is_unitary(self) -> bool:
        return self.family in ("SU", "GU")

    def conj(self, a: int) -> int:
        """Entry conjugation: a -> a^q for unitary families, identity otherwise."""
        if not self.is_unitary:
            return a
        return self.field.pow(a, self.q) if a else 0


def _split_prime_power(q: int) -> tuple[int, int]:
    if q > 2 ** 16:     # no field is larger; checked before q is factored
        raise ValueError("field size must be between p and 2^16")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p, k = primes[0], 1
    while p ** k < q:
        k += 1
    return p, k


def form_matrix(spec: ClassicalGroupSpec) -> Matrix | None:
    """The invariant form J; None for SL/GL."""
    F = spec.field
    n = spec.n
    if spec.family == "Sp":
        half = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(half):
            rows[i][n - 1 - i] = 1
            rows[n - 1 - i][i] = F.neg(1)
        return Matrix(F, rows)
    if spec.is_unitary:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][n - 1 - i] = 1
        return Matrix(F, rows)
    return None


def preserves_form(spec: ClassicalGroupSpec, g: Matrix) -> bool:
    J = form_matrix(spec)
    if J is None:
        return True
    gt = g.transpose()
    if spec.is_unitary:
        gt = Matrix(g.field, [[spec.conj(a) for a in row] for row in gt.rows])
    return (gt * J * g) == J


def _field_basis(F: FiniteField) -> list[int]:
    """An additive GF(p)-basis: powers of the canonical generator."""
    if F.k == 1:
        return [1]
    return [F.exp[i] for i in range(F.k)]


def _identity_with(F: FiniteField, n: int, entries: dict) -> Matrix:
    """The n x n identity with each (i, j) entry of ``entries`` set."""
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    for (i, j), t in entries.items():
        rows[i][j] = t
    return Matrix(F, rows)


def sl_generators(F: FiniteField, n: int) -> list[Matrix]:
    """Transvections I + t E_ij over an additive field basis generate SL(n, q)."""
    gens = []
    for t in _field_basis(F):
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens.append(_identity_with(F, n, {(i, j): t}))
    return gens


def gl_generators(F: FiniteField, n: int) -> list[Matrix]:
    gens = sl_generators(F, n)
    if F.size > 2:
        gens.append(_identity_with(F, n, {(0, 0): F.generator}))
    return gens


def long_root_element(n: int, q: int, i: int, t: int) -> Matrix:
    """The symplectic transvection x_{2e_i}(t) in Sp(2n, q), 1-based i.

    Identity plus t in the single (i, i') slot pairing the hyperbolic
    pair of coordinate i; additive in t and form-preserving.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    F = ClassicalGroupSpec("Sp", 2 * n, q).field
    return _identity_with(F, 2 * n, {(i - 1, 2 * n - i): t})


def sp_generators(F: FiniteField, n2: int) -> list[Matrix]:
    """Root elements of Sp(n2, q) for all long and short roots."""
    if n2 % 2:
        raise ValueError("symplectic dimension must be even")
    n = n2 // 2
    gens = []

    def pair(i):  # f_i coordinate for e_i coordinate
        return n2 - 1 - i

    for t in _field_basis(F):
        nt = F.neg(t)
        for i in range(n):
            # long roots +-2e_i
            gens.append(_identity_with(F, n2, {(i, pair(i)): t}))
            gens.append(_identity_with(F, n2, {(pair(i), i): t}))
            for j in range(n):
                if i == j:
                    continue
                # e_i - e_j : b_j -> b_j + t b_i, b_{i'} -> b_{i'} - t b_{j'}
                gens.append(_identity_with(
                    F, n2, {(i, j): t, (pair(j), pair(i)): nt}))
                if i < j:
                    # e_i + e_j : b_{j'} -> b_{j'} + t b_i, b_{i'} -> b_{i'} + t b_j
                    gens.append(_identity_with(
                        F, n2, {(i, pair(j)): t, (j, pair(i)): t}))
                    # -(e_i + e_j)
                    gens.append(_identity_with(
                        F, n2, {(pair(j), i): t, (pair(i), j): t}))
    return gens


def _su_unipotent_all(F: FiniteField, q: int) -> list[Matrix]:
    """Upper unitriangular matrices of SU(3, q), F = GF(q^2)."""
    out = []
    for a in F.elements():
        aq = F.pow(a, q) if a else 0
        norm = F.mul(a, aq)
        for b in F.elements():
            if F.add(F.add(b, F.pow(b, q) if b else 0), norm) == 0:
                out.append(Matrix(F, [[1, a, b], [0, 1, F.neg(aq)], [0, 0, 1]]))
    return out


def su_generators(F: FiniteField, q: int) -> list[Matrix]:
    """SU(3, q): upper and lower unipotent root elements plus a torus element."""
    uppers = [m for m in _su_unipotent_all(F, q) if m != Matrix.identity(F, 3)]
    J = Matrix(F, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    lowers = [J * m * J for m in uppers]
    alpha = F.generator
    torus = Matrix(F, [[alpha, 0, 0],
                       [0, F.pow(alpha, q - 1), 0],
                       [0, 0, F.pow(alpha, (- q) % (F.size - 1))]])
    return uppers + lowers + [torus]


def gu_generators(F: FiniteField, q: int) -> list[Matrix]:
    mu = F.generator
    extra = Matrix(F, [[mu, 0, 0], [0, 1, 0], [0, 0, F.pow(mu, (-q) % (F.size - 1))]])
    return su_generators(F, q) + [extra]


def classical_group(spec: ClassicalGroupSpec) -> list[Matrix]:
    F = spec.field
    if spec.family == "SL":
        gens = sl_generators(F, spec.n)
    elif spec.family == "GL":
        gens = gl_generators(F, spec.n)
    elif spec.family == "Sp":
        gens = sp_generators(F, spec.n)
    elif spec.family == "SU":
        gens = su_generators(F, spec.q)
    else:
        gens = gu_generators(F, spec.q)
    for g in gens:
        if not preserves_form(spec, g):
            raise AssertionError(f"generator violates the {spec.family} form")
    return gens


def scalar_count(spec: ClassicalGroupSpec) -> int:
    """Number of scalar matrices inside the group (the projective kernel)."""
    q, n = spec.q, spec.n
    if spec.family == "SL":
        return math.gcd(n, q - 1)
    if spec.family == "GL":
        return q - 1
    if spec.family == "Sp":
        return math.gcd(2, q - 1)
    if spec.family == "SU":
        return math.gcd(3, q + 1)
    return q + 1  # GU: scalars of norm 1


def matrix_group_order(spec: ClassicalGroupSpec) -> int:
    q, n = spec.q, spec.n
    if spec.family in ("SL", "GL"):
        order = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            order *= q ** i - 1
        if spec.family == "GL":
            order *= q - 1
        return order
    if spec.family == "Sp":
        half = n // 2
        order = q ** (half * half)
        for i in range(1, half + 1):
            order *= q ** (2 * i) - 1
        return order
    order = q ** 3 * (q ** 2 - 1) * (q ** 3 + 1)
    if spec.family == "GU":
        order *= q + 1
    return order


def lie_order(family: str, rank: int, q: int, twisted: bool = False,
              projective: bool = False) -> int:
    """Order of the simply-connected classical group (or its central quotient).

    Supported: A_l (SL_{l+1}), C_l (Sp_{2l}), twisted A_l (SU_{l+1}).
    """
    if family == "A" and not twisted:
        spec = ClassicalGroupSpec("SL", rank + 1, q)
    elif family == "A" and twisted:
        if rank == 2:
            spec = ClassicalGroupSpec("SU", 3, q)
        else:
            order = q ** (rank * (rank + 1) // 2)
            for i in range(2, rank + 2):
                order *= q ** i - (-1) ** i
            return order // (math.gcd(rank + 1, q + 1) if projective else 1)
    elif family == "C" and not twisted:
        spec = ClassicalGroupSpec("Sp", 2 * rank, q)
    else:
        raise ValueError(f"unsupported family {family} (twisted={twisted})")
    order = matrix_group_order(spec)
    return order // scalar_count(spec) if projective else order
