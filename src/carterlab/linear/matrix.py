"""Square matrices over a finite field, stored as tuples of row tuples.

Entries are field element codes (ints); all arithmetic goes through the
owning FiniteField, so matrices are hashable values usable as dict keys.
"""

from __future__ import annotations

from .gf import FiniteField


class Matrix:
    __slots__ = ("field", "rows", "cols", "n")

    def __init__(self, field: FiniteField, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")
        self.cols = tuple(zip(*self.rows))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> Matrix:
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, field: FiniteField, n: int, c: int) -> Matrix:
        return cls(field, [[c if i == j else 0 for j in range(n)] for i in range(n)])

    def __mul__(self, other: Matrix) -> Matrix:
        return Matrix(self.field, map(other.apply_to_row_vector, self.rows))

    def transpose(self) -> Matrix:
        return Matrix(self.field, self.cols)

    def det(self) -> int:
        F, n = self.field, self.n
        m = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = F.neg(det)
            det = F.mul(det, m[col][col])
            inv = F.inv(m[col][col])
            for r in range(col + 1, n):
                if m[r][col]:
                    factor = F.mul(m[r][col], inv)
                    m[r] = [F.sub(a, F.mul(factor, b)) for a, b in zip(m[r], m[col])]
        return det

    def inverse(self) -> Matrix:
        F, n = self.field, self.n
        m = [list(r) + [1 if i == j else 0 for j in range(n)]
             for i, r in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col]), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = F.inv(m[col][col])
            m[col] = [F.mul(inv, a) for a in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    factor = m[r][col]
                    m[r] = [F.sub(a, F.mul(factor, b)) for a, b in zip(m[r], m[col])]
        return Matrix(F, [row[n:] for row in m])

    def apply_to_row_vector(self, v: tuple) -> tuple:
        """v * M for a row vector v."""
        F = self.field
        out = []
        for col in self.cols:
            acc = 0
            for a, b in zip(v, col):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows and self.field == other.field

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({self.rows})"
