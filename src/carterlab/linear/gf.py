"""Finite fields GF(p^k) with log/exp multiplication tables.

Elements are integers 0 .. p^k-1 encoding polynomial coefficient
vectors in base p (coefficient of x^i is digit i).  The modulus is the
lexicographically least irreducible monic polynomial, coefficients
compared from the constant term up, whose root x is a generator of the
multiplicative group; that fixed choice makes every derived artifact
(projective domains, permutation images, fingerprints) bit-stable.
"""

from __future__ import annotations

import functools

from ..permgrp.sylow import is_prime, prime_factors


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
        self.modulus = _least_primitive_modulus(p, k)
        self._build_tables()

    def _build_tables(self):
        # exp[i] = x^i as an element code; log inverts it on nonzeros
        p, k, size = self.p, self.k, self.size
        reduction = self.modulus[:k]  # x^k = -(low part) mod p
        neg_red = [(-c) % p for c in reduction]
        exp = [1]
        cur = [1] + [0] * (k - 1)
        for _ in range(size - 2):
            # multiply by x: shift digits up, reduce the overflow digit
            carry = cur[k - 1]
            cur = [0] + cur[:k - 1]
            if carry:
                cur = [(c + carry * r) % p for c, r in zip(cur, neg_red)]
            exp.append(_encode(cur, p))
        self.exp = exp
        log = [0] * size
        for i, e in enumerate(exp):
            log[e] = i
        self.log = log
        self.generator = self.exp[1] if size > 2 else 1

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

    def nonzero(self):
        return range(1, self.size)

    def prime_subfield(self):
        """Element codes of the prime field GF(p)."""
        return list(range(self.p))

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


def _poly_mulmod(a, b, mod, p):
    """(a*b) mod (x^k + mod_low) over GF(p); polys are digit lists."""
    k = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
    out = prod[:k]
    return out + [0] * (k - len(out))


def _poly_powmod(base, e, mod, p):
    k = len(mod) - 1
    result = [1] + [0] * (k - 1)
    cur = base + [0] * (k - len(base))
    while e:
        if e & 1:
            result = _poly_mulmod(result, cur, mod, p)
        cur = _poly_mulmod(cur, cur, mod, p)
        e >>= 1
    return result


def _is_irreducible(mod, p: int) -> bool:
    """x^k + low irreducible iff x^(p^k) = x and gcd-free at proper levels."""
    k = len(mod) - 1
    x = [0, 1]
    xq = _poly_powmod(x, p ** k, mod, p)
    if xq[:2] != [0, 1] or any(c for c in xq[2:]):
        return False
    for r in prime_factors(k):
        xr = _poly_powmod(x, p ** (k // r), mod, p)
        # x^(p^(k/r)) - x must be coprime to mod; since mod has degree k,
        # it suffices that the difference is not zero mod any root, i.e.
        # gcd(difference, mod) == 1
        diff = [(a - b) % p for a, b in zip(xr, x + [0] * (len(xr) - 2))]
        if _poly_gcd_is_nontrivial(diff, mod, p):
            return False
    return True


def _poly_gcd_is_nontrivial(a, mod, p) -> bool:
    b = list(mod)
    a = list(a)
    while any(a):
        # reduce b mod a
        da = max(i for i, c in enumerate(a) if c)
        lead_inv = pow(a[da], -1, p)
        b = list(b)
        db = max((i for i, c in enumerate(b) if c), default=-1)
        while db >= da:
            factor = (b[db] * lead_inv) % p
            for i in range(da + 1):
                b[db - da + i] = (b[db - da + i] - factor * a[i]) % p
            db = max((i for i, c in enumerate(b) if c), default=-1)
        a, b = b, a
    db = max((i for i, c in enumerate(b) if c), default=-1)
    return db > 0


def _root_is_primitive(mod, p: int) -> bool:
    k = len(mod) - 1
    n = p ** k - 1
    x = [0, 1]
    for r in prime_factors(n):
        xr = _poly_powmod(x, n // r, mod, p)
        if xr[0] == 1 and not any(xr[1:]):
            return False
    return True


def _least_primitive_modulus(p: int, k: int) -> list[int]:
    """Monic degree-k modulus digits [c0, ..., c_{k-1}, 1], least in lex order
    of (c0, ..., c_{k-1}), irreducible with x primitive mod it."""
    if k == 1:
        for c0 in range(1, p):
            if _multiplicative_order(p - c0, p) == p - 1 or p == 2:
                return [c0, 1]
        raise AssertionError("no primitive root found")
    for code in range(p ** k):
        digits = []
        c = code
        for _ in range(k):
            digits.append(c % p)
            c //= p
        mod = digits + [1]
        if _is_irreducible(mod, p) and _root_is_primitive(mod, p):
            return mod
    raise AssertionError("no primitive polynomial found")


def _multiplicative_order(a: int, p: int) -> int:
    if a % p == 0:
        return 0
    o, cur = 1, a % p
    while cur != 1:
        cur = (cur * a) % p
        o += 1
    return o
