"""Exact arithmetic in the coefficient field k = F_p or F_{p^2}.

The symplectic flavor works over the prime field F_p; the unitary flavor
works over the quadratic extension F_{p^2} and carries the order-2 field
automorphism a -> a^p used as the conjugation involution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# p^2 must stay a comfortable machine integer; the statistics of interest
# only ever need small p anyway.
MAX_P = 1 << 15


class Flavor(enum.Enum):
    SYMPLECTIC = "sym"
    UNITARY = "uni"

    @classmethod
    def parse(cls, text: str) -> "Flavor":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown flavor {text!r}: expected 'sym' or 'uni'") from None


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue modulo an odd prime p."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"no quadratic non-residue modulo {p}")


@dataclass(frozen=True)
class FieldParams:
    """Parameters of the field k: p, the flavor, q and the modulus.

    modulus is the pair (a1, a0) describing the monic quadratic
    x^2 + a1*x + a0 over F_p; it is None in the symplectic flavor.
    """

    p: int
    flavor: Flavor
    q: int
    modulus: tuple[int, int] | None

    def zero(self) -> "FqElem":
        return FqElem(self, 0, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1, 0)

    def elem(self, c0: int, c1: int = 0) -> "FqElem":
        if c1 % self.p != 0 and self.flavor is Flavor.SYMPLECTIC:
            raise ValueError("symplectic field elements have no x-coordinate")
        return FqElem(self, c0 % self.p, c1 % self.p)

    def gen(self) -> "FqElem":
        """The generator x of F_{p^2} over F_p (unitary flavor only)."""
        if self.flavor is not Flavor.UNITARY:
            raise ValueError("prime field has no quadratic generator")
        return FqElem(self, 0, 1)

    def elements(self):
        """All q elements, in c0 + c1*p encoding order."""
        if self.flavor is Flavor.SYMPLECTIC:
            for c0 in range(self.p):
                yield FqElem(self, c0, 0)
        else:
            for c1 in range(self.p):
                for c0 in range(self.p):
                    yield FqElem(self, c0, c1)


def check_range(p: int) -> None:
    """Refuse a p past MAX_P. Run it before any primality test: trial division
    of a huge p would not finish."""
    if p > MAX_P:
        raise ValueError(f"p = {p} exceeds the supported range (p <= {MAX_P})")


def build_field(p: int, flavor: Flavor) -> FieldParams:
    """Construct field parameters for F_p (symplectic) or F_{p^2} (unitary).

    The quadratic modulus is chosen deterministically: x^2+x+1 for p = 2,
    x^2 - n for odd p with n the smallest positive non-residue mod p. Both
    have no root in F_p, so they are irreducible.
    """
    check_range(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if flavor is Flavor.SYMPLECTIC:
        return FieldParams(p=p, flavor=flavor, q=p, modulus=None)
    if p == 2:
        modulus = (1, 1)
    else:
        modulus = (0, (-smallest_nonresidue(p)) % p)
    return FieldParams(p=p, flavor=flavor, q=p * p, modulus=modulus)


def format_elem(c0: int, c1: int) -> str:
    """The text of c0 + c1*x, as str(FqElem) prints it: "3", "x", "2x+3"."""
    if c1 == 0:
        return str(c0)
    xs = "x" if c1 == 1 else f"{c1}x"
    return xs if c0 == 0 else f"{xs}+{c0}"


@dataclass(frozen=True, slots=True)
class FqElem:
    """Element c0 + c1*x of k, with coordinates reduced mod p."""

    field: FieldParams
    c0: int
    c1: int = 0

    def _coerce(self, other) -> "FqElem":
        if not isinstance(other, FqElem):
            raise TypeError(f"field arithmetic needs two FqElem operands, "
                            f"got {type(other).__name__}")
        # identity first: comparing the whole FieldParams is the slow path
        if other.field is not self.field and other.field != self.field:
            raise ValueError("field mismatch in arithmetic")
        return other

    def __add__(self, other):
        b = self._coerce(other)
        p = self.field.p
        return FqElem(self.field, (self.c0 + b.c0) % p, (self.c1 + b.c1) % p)

    def __sub__(self, other):
        b = self._coerce(other)
        p = self.field.p
        return FqElem(self.field, (self.c0 - b.c0) % p, (self.c1 - b.c1) % p)

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, (-self.c0) % p, (-self.c1) % p)

    def __mul__(self, other):
        b = self._coerce(other)
        p = self.field.p
        if self.field.modulus is None:
            return FqElem(self.field, (self.c0 * b.c0) % p, 0)
        # (c0 + c1 x)(d0 + d1 x) with x^2 = -a1*x - a0
        a1, a0 = self.field.modulus
        cross = self.c1 * b.c1
        e0 = (self.c0 * b.c0 - a0 * cross) % p
        e1 = (self.c0 * b.c1 + self.c1 * b.c0 - a1 * cross) % p
        return FqElem(self.field, e0, e1)

    # kept only because perfbench/tracing.py patches it to count multiplications
    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FqElem":
        if e < 0:
            return self.inv() ** (-e)
        if self.field.modulus is None:
            return FqElem(self.field, pow(self.c0, e, self.field.p), 0)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return self.c0 != 0 or self.c1 != 0

    def inv(self) -> "FqElem":
        """a^-1 = conj(a) / N(a), with the norm N(a) = a * conj(a) in F_p."""
        if not self:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        field = self.field
        p = field.p
        if field.modulus is None:
            return FqElem(field, pow(self.c0, p - 2, p), 0)
        a1, a0 = field.modulus
        c0, c1 = self.c0, self.c1
        n_inv = pow((c0 * c0 - a1 * c0 * c1 + a0 * c1 * c1) % p, p - 2, p)
        return FqElem(field, (c0 - a1 * c1) * n_inv % p, -c1 * n_inv % p)

    def conj(self) -> "FqElem":
        """Frobenius a -> a^p; the identity on the prime field.

        It sends x to the other root -a1 - x of the modulus x^2 + a1*x + a0.
        """
        if self.field.flavor is Flavor.SYMPLECTIC or self.c1 == 0:
            return self
        p = self.field.p
        return FqElem(self.field, (self.c0 - self.field.modulus[0] * self.c1) % p, -self.c1 % p)

    def __str__(self) -> str:
        return format_elem(self.c0, self.c1)

    def __repr__(self) -> str:
        return f"FqElem({self}, q={self.field.q})"
