"""Finite fields GF(p^k) with log/exp multiplication tables.

Elements are integers 0 .. p^k-1 encoding polynomial coefficient
vectors in base p (coefficient of x^i is digit i).  The modulus is the
monic degree-k polynomial x^k + c_{k-1} x^{k-1} + ... + c0 of least
code c0 + c1*p + ... + c_{k-1}*p^(k-1) (lexicographic from c_{k-1} down
to c0) whose root x generates the multiplicative group: GF(8) gets
x^3 + x + 1, and GF(p) gets x + (p - g) with g the largest primitive
root mod p.  That fixed choice makes every derived artifact (projective
domains, permutation images, fingerprints) bit-stable.
"""

from __future__ import annotations

import functools

from ..permgrp.sylow import is_prime


class FiniteField:
    """GF(p^k); immutable and safely shareable after construction."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1 or p ** k > 2 ** 16:
            raise ValueError("field size must be between p and 2^16")
        self.p = p
        self.k = k
        self.size = p ** k
        self.modulus, self.exp = _least_primitive_modulus(p, k)
        log = [0] * self.size
        for i, e in enumerate(self.exp):
            log[e] = i
        self.log = log
        self.generator = self.exp[1] if self.size > 2 else 1

    # -- arithmetic on element codes ----------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.size - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverting 0 in a finite field")
        return self.exp[(-self.log[a]) % (self.size - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 to a non-positive power")
            return 0
        return self.exp[(self.log[a] * e) % (self.size - 1)]

    def frobenius(self, a: int) -> int:
        """x -> x^p, the generating field automorphism."""
        return self.pow(a, self.p)

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field_make(p: int, k: int = 1) -> FiniteField:
    return FiniteField(p, k)


def _encode(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _least_primitive_modulus(p: int, k: int) -> tuple[list[int], list[int]]:
    """The modulus digits [c0, ..., c_{k-1}, 1] of least code
    c0 + c1*p + ... + c_{k-1}*p^(k-1) with x primitive mod it, and the
    powers x^0 .. x^(p^k-2) as element codes.

    A candidate with c0 != 0 makes x a unit of the ring GF(p)[x]/(f), which
    has at most p^k - 1 units; if x^i != 1 for 0 < i < p^k - 1, that bound
    is met, so every nonzero residue is a unit, f is irreducible and x is
    primitive.  With c0 = 0, x is a zero divisor whose powers never return
    to 1, so those candidates are skipped.
    """
    for code in range(p ** k):
        low = [code // p ** i % p for i in range(k)]
        if low[0] == 0:
            continue
        neg_low = [(-c) % p for c in low]  # x^k = -(low part) mod f
        exp = [1]
        cur = [1] + [0] * (k - 1)
        for _ in range(p ** k - 2):
            # multiply by x: shift digits up, reduce the overflow digit
            carry = cur[k - 1]
            cur = [0] + cur[:k - 1]
            if carry:
                cur = [(c + carry * r) % p for c, r in zip(cur, neg_low)]
            e = _encode(cur, p)
            if e == 1:
                break
            exp.append(e)
        else:
            return low + [1], exp
    raise AssertionError("no primitive polynomial found")
