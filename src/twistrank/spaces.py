"""Metabolic symplectic/unitary k-spaces and the local hyperbolic-plane model.

A Subspace keeps its basis in reduced row-echelon form, so each subspace
has a unique representation and equality is structural comparison.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .gf import FieldParams, Flavor, FqElem

Vector = tuple[FqElem, ...]
Matrix = tuple[Vector, ...]


def rref(rows: list[list[FqElem]]) -> Matrix:
    """Reduced row-echelon form with zero rows dropped."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv = 0
    for col in range(ncols):
        sel = next((i for i in range(piv, nrows) if rows[i][col]), None)
        if sel is None:
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        scale = rows[piv][col].inv()
        rows[piv] = [scale * v for v in rows[piv]]
        for i in range(nrows):
            if i != piv and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        piv += 1
        if piv == nrows:
            break
    return tuple(tuple(r) for r in rows[:piv])


@dataclass(frozen=True, slots=True)
class Subspace:
    """The span of `basis` in k^ambient_dim.

    The rows may be any spanning vectors: they are reduced to the canonical
    echelon basis when the subspace is built, so dependent rows collapse and
    == and hash compare subspaces rather than bases.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        if any(len(v) != self.ambient_dim for v in self.basis):
            raise ValueError("vector length does not match the ambient dimension")
        object.__setattr__(self, "basis", rref(self.basis))


@dataclass(frozen=True)
class HermitianSpace:
    """A non-degenerate sesquilinear k-space with Gram matrix `gram`.

    Symplectic flavor: the form is alternating (zero diagonal plus
    skew-symmetry, which is the correct condition also when p = 2).
    Unitary flavor: the Gram matrix is hermitian under conjugation.

    `entries` holds the non-zero Gram entries g_ij = g0 + g1*x as int
    tuples (i, j, g0, g1), for the pairing; it is derived from `gram`,
    so equality and repr leave it out.
    """

    field: FieldParams
    dim: int
    gram: Matrix
    entries: tuple[tuple[int, int, int, int], ...] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1 or len(self.gram) != self.dim:
            raise ValueError("gram matrix does not match the stated dimension")
        for row in self.gram:
            if len(row) != self.dim:
                raise ValueError("gram matrix is not square")
        if len(rref([list(r) for r in self.gram])) != self.dim:
            raise ValueError("degenerate Gram matrix")
        if self.field.flavor is Flavor.SYMPLECTIC:
            for i in range(self.dim):
                if self.gram[i][i]:
                    raise ValueError("symplectic Gram matrix must have zero diagonal")
                for j in range(self.dim):
                    if self.gram[j][i] != -self.gram[i][j]:
                        raise ValueError("symplectic Gram matrix must be skew-symmetric")
        else:
            for i in range(self.dim):
                for j in range(self.dim):
                    if self.gram[j][i] != self.gram[i][j].conj():
                        raise ValueError("unitary Gram matrix must be hermitian")
        object.__setattr__(self, "entries", tuple(
            (i, j, g.c0, g.c1) for i, row in enumerate(self.gram)
            for j, g in enumerate(row) if g))


def hyperbolic_plane(field: FieldParams) -> HermitianSpace:
    """The standard 2-dimensional metabolic space for the given flavor."""
    one, zero = field.one(), field.zero()
    lower = -one if field.flavor is Flavor.SYMPLECTIC else one
    return HermitianSpace(field=field, dim=2, gram=((zero, one), (lower, zero)))


def metabolic_space(field: FieldParams, blocks: int) -> HermitianSpace:
    """Orthogonal sum of `blocks` hyperbolic planes (dimension 2*blocks)."""
    if blocks < 1:
        raise ValueError("need at least one hyperbolic block")
    plane = hyperbolic_plane(field)
    dim, zero = 2 * blocks, field.zero()
    gram = tuple(tuple(plane.gram[i % 2][j % 2] if i // 2 == j // 2 else zero
                       for j in range(dim)) for i in range(dim))
    return HermitianSpace(field=field, dim=dim, gram=gram)


def _check_coordinates(space: HermitianSpace, vectors) -> None:
    """Raise ValueError unless every vector has dim coordinates in the field."""
    dim, field = space.dim, space.field
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector length does not match the space dimension")
    for v in vectors:
        for e in v:
            # identity first: comparing the whole FieldParams is the slow path
            if e.field is not field and e.field != field:
                raise ValueError("field mismatch in arithmetic")


def _pairing(space: HermitianSpace, x, y) -> tuple[int, int]:
    """h(x, y) as its coordinates (c0, c1), as in FqElem, for vectors that
    _check_coordinates has passed.

    The sum runs over the non-zero Gram entries only, in integer
    coordinates: on a metabolic Gram matrix, with one non-zero entry per
    row, a pairing costs dim products.
    """
    p = space.field.p
    if space.field.modulus is None:
        s0 = 0
        for i, j, g0, _ in space.entries:
            s0 += x[i].c0 * g0 * y[j].c0
        return s0 % p, 0
    # with x^2 = -a1*x - a0: u = x_i * g_ij, then u * conj(y_j), where
    # conj(d0 + d1*x) = (d0 - a1*d1) - d1*x
    a1, a0 = space.field.modulus
    s0 = s1 = 0
    for i, j, g0, g1 in space.entries:
        c0, c1, d0, d1 = x[i].c0, x[i].c1, y[j].c0, y[j].c1
        cross = c1 * g1
        u0 = (c0 * g0 - a0 * cross) % p
        u1 = (c0 * g1 + c1 * g0 - a1 * cross) % p
        e0, e1 = d0 - a1 * d1, -d1
        cross = u1 * e1
        s0 += u0 * e0 - a0 * cross
        s1 += u0 * e1 + u1 * e0 - a1 * cross
    return s0 % p, s1 % p


def evaluate_form(space: HermitianSpace, x, y) -> FqElem:
    """h(x, y) = sum of x_i * g_ij * conj(y_j), linear in x and
    conjugate-linear in y; a coordinate over another field raises ValueError."""
    _check_coordinates(space, (x, y))
    return FqElem(space.field, *_pairing(space, x, y))


def _null_space(constraints: list[list[FqElem]], field: FieldParams, dim: int) -> Subspace:
    reduced = rref(constraints)
    pivots = []
    for row in reduced:
        pivots.append(next(j for j, v in enumerate(row) if v))
    free = [j for j in range(dim) if j not in pivots]
    zero, one = field.zero(), field.one()
    basis = []
    for f in free:
        vec = [zero] * dim
        vec[f] = one
        for i, pcol in enumerate(pivots):
            vec[pcol] = -reduced[i][f]
        basis.append(vec)
    return Subspace(dim, basis)


def orthogonal_complement(space: HermitianSpace, sub: Subspace) -> Subspace:
    """All v with h(x, v) = 0 for every x in the subspace."""
    if sub.ambient_dim != space.dim:
        raise ValueError("subspace does not live in this space")
    constraints = []
    for x in sub.basis:
        w = [space.field.zero()] * space.dim
        for j in range(space.dim):
            acc = space.field.zero()
            for i in range(space.dim):
                if x[i]:
                    acc = acc + x[i] * space.gram[i][j]
            # h(x, v) = sum_j w_j conj(v_j) vanishes iff sum_j conj(w_j) v_j does
            w[j] = acc.conj()
        constraints.append(w)
    return _null_space(constraints, space.field, space.dim)


def is_maximal_isotropic(space: HermitianSpace, sub: Subspace) -> bool:
    """Whether sub equals its orthogonal complement (a Lagrangian).

    The form is non-degenerate, so dim L^perp = dim V - dim L, and L = L^perp
    exactly when 2 dim L = dim V and h(x, y) = 0 for basis vectors x before
    or at y; h(y, x) = +-conj h(x, y) covers the other pairs. The echelon
    basis is independent, so len(basis) is dim L. The basis is checked once,
    and an alternating form skips the pairs x = y, where h(x, x) = 0; a
    hermitian h(x, x) lies in F_p and may not vanish.
    """
    if sub.ambient_dim != space.dim:
        raise ValueError("subspace does not live in this space")
    basis = sub.basis
    if 2 * len(basis) != space.dim:
        return False
    _check_coordinates(space, basis)
    n = len(basis)
    skip = 1 if space.field.flavor is Flavor.SYMPLECTIC else 0
    for i in range(n):
        x = basis[i]
        for j in range(i + skip, n):
            if _pairing(space, x, basis[j]) != (0, 0):
                return False
    return True


def _roots_mod_p(a2: int, a1: int, a0: int, p: int, sqrt: dict[int, int],
                 inv: int) -> list[int]:
    """The roots in F_p, ascending, of a2*a^2 + a1*a + a0; `sqrt` maps each
    square of F_p to one of its square roots. For odd p, `inv` is 1/(2*a2)
    mod p, or 1/a1 mod p when a2 = 0."""
    if p == 2:
        return [a for a in range(2) if (a2 * a * a + a1 * a + a0) % 2 == 0]
    if not a2:
        if not a1:
            return [] if a0 else list(range(p))
        return [-a0 * inv % p]
    disc = (a1 * a1 - 4 * a2 * a0) % p
    if disc not in sqrt:
        return []
    s = sqrt[disc]
    return sorted({(-a1 + s) * inv % p, (-a1 - s) * inv % p})


def isotropic_slopes(space: HermitianSpace) -> list[tuple[int, int] | None]:
    """All isotropic lines of a 2-dimensional space in canonical order, in
    integer coordinates: None for the line of (0, 1), (a, b) for (1, a + b*x).

    Lines are ordered lexicographically by the integer encodings c0 + c1*p
    of their canonical basis vector, which makes downstream fiber maps
    stable. The bases (0, 1) and (1, t) are already reduced, and the lines
    are found in O(p) without testing every candidate:

    - symplectic: the form is alternating, so all p + 1 lines are isotropic;
    - unitary: for t = a + b*x, h((1, t), (1, t)) = g00 + Tr(g10*t) + g11*N(t)
      with N(a + b*x) = a^2 - m1*a*b + m0*b^2 for the modulus x^2 + m1*x + m0.
      For each b in F_p that is the polynomial
          g11*a^2 + (Tr(g10) - m1*g11*b)*a + (g00 + Tr(g10*x)*b + m0*g11*b^2)
      over F_p, and (0, 1) is isotropic exactly when g11 = 0.
    """
    if space.dim != 2:
        raise ValueError("isotropic-line enumeration requires dimension 2")
    field = space.field
    p = field.p
    if field.flavor is Flavor.SYMPLECTIC:
        slopes = [None] + [(a, 0) for a in range(p)]
    else:
        (g00, _), (g10, g11) = space.gram
        m1, m0 = field.modulus
        h00, h11 = g00.c0, g11.c0
        tr1, trx = ((y + y.conj()).c0 for y in (g10, g10 * field.gen()))
        slopes = [] if h11 else [None]
        sqrt = {s * s % p: s for s in range(p)}
        # the leading coefficient is the same for every b, and so, when it is
        # 0, is the linear one, so the inverse _roots_mod_p needs is found once
        inv = pow(2 * h11 if h11 else tr1, p - 2, p)
        for b in range(p):
            roots = _roots_mod_p(h11, (tr1 - m1 * h11 * b) % p,
                                 (h00 + trx * b + m0 * h11 * b * b) % p, p, sqrt, inv)
            slopes += [(a, b) for a in roots]
    # a non-degenerate plane has p + 1 isotropic lines in either flavor
    if len(slopes) != p + 1:
        raise ValueError(f"expected {p + 1} isotropic lines, found {len(slopes)}")
    return slopes


def enumerate_isotropic_lines(space: HermitianSpace) -> list[Subspace]:
    """The lines of isotropic_slopes as subspaces, by their canonical bases."""
    field = space.field
    one = field.one()
    return [Subspace(2, ((field.zero(), one),)) if slope is None
            else Subspace(2, ((one, FqElem(field, *slope)),))
            for slope in isotropic_slopes(space)]


# fiber sizes are printed in decimal, and Python refuses to convert an int of
# more than 4300 digits to text by default
MAX_FIBER_DIGITS = 4300


def fiber_size(p: int, n: int) -> int:
    """Number of order-p^n totally ramified characters mapping to one line."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # the largest n whose fiber size has at most MAX_FIBER_DIGITS digits,
    # found without building the power
    bound = math.ceil((MAX_FIBER_DIGITS - math.log10(p - 1)) / (2 * math.log10(p)))
    if n > bound:
        raise ValueError(f"n = {n} is too large for p = {p}: "
                         f"the fiber size p^(2n-2)(p-1) would exceed {MAX_FIBER_DIGITS} "
                         f"digits (n <= {bound})")
    return p ** (2 * n - 2) * (p - 1)

