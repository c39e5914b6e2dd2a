import dataclasses
import random
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistrank.gf import Flavor, build_field, is_prime
from twistrank.spaces import (
    HermitianSpace,
    Subspace,
    build_local_plane,
    enumerate_isotropic_lines,
    evaluate_form,
    fiber_size,
    hyperbolic_plane,
    is_maximal_isotropic,
    isotropic_slopes,
    kummer_line_of_character,
    metabolic_space,
    orthogonal_complement,
    rref,
)


def basis_vector(field, dim, i):
    return tuple(field.one() if j == i else field.zero() for j in range(dim))


def all_vectors(field, dim):
    return list(product(list(field.elements()), repeat=dim))


def all_subspaces(field, dim):
    """Every subspace, enumerated through its unique echelon basis."""
    elems = list(field.elements())
    zero, one = field.zero(), field.one()
    out = [Subspace(ambient_dim=dim, basis=())]
    for r in range(1, dim + 1):
        for pivots in combinations(range(dim), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(dim)
                if j > pivots[i] and j not in pivots
            ]
            for values in product(elems, repeat=len(free)):
                rows = [[zero] * dim for _ in range(r)]
                for i, pcol in enumerate(pivots):
                    rows[i][pcol] = one
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append(Subspace(ambient_dim=dim, basis=tuple(tuple(r_) for r_ in rows)))
    return out


def gaussian_subspace_count(q, dim):
    def gauss_binom(n, k):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        return num // den

    return sum(gauss_binom(dim, r) for r in range(dim + 1))


def fields_q_le(limit, min_dim_elems=None):
    fields = []
    for p in range(2, limit + 1):
        if is_prime(p):
            fields.append(build_field(p, Flavor.SYMPLECTIC))
            if p * p <= limit:
                fields.append(build_field(p, Flavor.UNITARY))
    return fields


def test_form_on_hyperbolic_basis():
    for flavor in Flavor:
        field = build_field(3, flavor)
        space = hyperbolic_plane(field)
        e1 = basis_vector(field, 2, 0)
        e2 = basis_vector(field, 2, 1)
        assert evaluate_form(space, e1, e2) == field.one()


def test_symplectic_form_is_alternating_exhaustive():
    for field in [build_field(p, Flavor.SYMPLECTIC) for p in (2, 3, 5, 7)] + [
        build_field(2, Flavor.UNITARY), build_field(3, Flavor.UNITARY)
    ]:
        if field.flavor is not Flavor.SYMPLECTIC:
            continue
        space = hyperbolic_plane(field)
        for v in all_vectors(field, 2):
            assert not evaluate_form(space, v, v)


def test_unitary_f4_self_pairing():
    field = build_field(2, Flavor.UNITARY)
    space = hyperbolic_plane(field)
    x = field.gen()
    v = (field.one(), x)
    # h(v, v) = conj(x) + x = 1 with modulus x^2+x+1
    assert evaluate_form(space, v, v) == field.one()


def test_form_dimension_mismatch():
    field = build_field(3, Flavor.SYMPLECTIC)
    space = hyperbolic_plane(field)
    with pytest.raises(ValueError):
        evaluate_form(space, (field.one(),), (field.one(), field.zero()))


def test_form_rejects_vectors_over_another_field():
    """F_5 vectors on the F_3 plane, and vectors of the same p but the other
    flavor, raise rather than pair as integers."""
    space = hyperbolic_plane(build_field(3, Flavor.SYMPLECTIC))
    own = (space.field.one(), space.field.zero())
    for other in (build_field(5, Flavor.SYMPLECTIC), build_field(3, Flavor.UNITARY)):
        foreign = (other.one(), other.one())
        for x, y in ((foreign, foreign), (own, foreign), (foreign, own)):
            with pytest.raises(ValueError, match="field mismatch in arithmetic"):
                evaluate_form(space, x, y)


@pytest.mark.parametrize("flavor", list(Flavor))
def test_form_pairs_vectors_over_an_equal_field(flavor):
    """A second build_field call gives an equal field but not the same
    object; its vectors pair as the plane's own do. A field with another p
    still raises."""
    field, twin = build_field(3, flavor), build_field(3, flavor)
    assert twin == field and twin is not field
    space = hyperbolic_plane(field)
    for x, y in product(all_vectors(field, 2), repeat=2):
        x_twin, y_twin = (tuple(twin.elem(e.c0, e.c1) for e in v) for v in (x, y))
        assert evaluate_form(space, x_twin, y_twin) == evaluate_form(space, x, y)
    with pytest.raises(ValueError, match="field mismatch in arithmetic"):
        evaluate_form(space, (field.one(), field.zero()), (build_field(5, flavor).one(),) * 2)


def test_sesquilinearity_seeded_random():
    for flavor in Flavor:
        limit = 25
        primes = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) if (p if flavor is Flavor.SYMPLECTIC else p * p) <= limit]
        for p in primes:
            field = build_field(p, flavor)
            space = metabolic_space(field, 2)
            rng = random.Random(987)
            elems = list(field.elements())
            for _ in range(500):
                a = rng.choice(elems)
                x = tuple(rng.choice(elems) for _ in range(4))
                y = tuple(rng.choice(elems) for _ in range(4))
                ax = tuple(a * xi for xi in x)
                ay = tuple(a * yi for yi in y)
                h = evaluate_form(space, x, y)
                assert evaluate_form(space, ax, y) == a * h
                assert evaluate_form(space, x, ay) == a.conj() * h


def dense_form(space, x, y):
    """sum_ij x_i * g_ij * conj(y_j) with FqElem operators, over every
    Gram entry."""
    acc = space.field.zero()
    for xi, row in zip(x, space.gram):
        for g, yj in zip(row, y):
            acc = acc + xi * g * yj.conj()
    return acc


@pytest.mark.parametrize("p,flavor", [(2, Flavor.SYMPLECTIC), (3, Flavor.SYMPLECTIC),
                                      (2, Flavor.UNITARY)])
def test_form_matches_the_dense_sum_on_two_hyperbolic_planes(p, flavor):
    """Every pair of vectors of metabolic_space(field, 2)."""
    field = build_field(p, flavor)
    space = metabolic_space(field, 2)
    vectors = all_vectors(field, 4)
    # x^T G and conj(y) once per vector keep the dense sum affordable
    x_gram = [tuple(sum((xi * row[j] for xi, row in zip(x, space.gram)), field.zero())
                    for j in range(4)) for x in vectors]
    y_conj = [tuple(yj.conj() for yj in y) for y in vectors]
    for x, w in zip(vectors, x_gram):
        for y, c in zip(vectors, y_conj):
            expected = sum((a * b for a, b in zip(w, c)), field.zero())
            assert evaluate_form(space, x, y) == expected, (x, y)


def random_element(field, rng):
    unitary = field.flavor is Flavor.UNITARY
    return field.elem(rng.randrange(field.p), rng.randrange(field.p) if unitary else 0)


def random_gram_space(field, rng):
    """A seeded random non-degenerate space of dimension 2 or 4
    (symplectic) or 1 to 4 (unitary, with non-zero F_p diagonal
    entries)."""
    unitary = field.flavor is Flavor.UNITARY
    while True:
        dim = rng.randint(1, 4) if unitary else rng.choice((2, 4))
        gram = [[field.zero()] * dim for _ in range(dim)]
        for i in range(dim):
            if unitary:
                gram[i][i] = field.elem(rng.randrange(1, field.p))
            for j in range(i + 1, dim):
                g = random_element(field, rng)
                gram[i][j] = g
                gram[j][i] = g.conj() if unitary else -g
        try:
            return HermitianSpace(field=field, dim=dim, gram=tuple(map(tuple, gram)))
        except ValueError:
            continue


@pytest.mark.parametrize("p", [2, 3, 5, 7, 32749])
@pytest.mark.parametrize("flavor", list(Flavor))
def test_form_matches_the_dense_sum_on_random_gram_matrices(p, flavor):
    field = build_field(p, flavor)
    rng = random.Random(f"{p}/{flavor.value}")
    for _ in range(20):
        space = random_gram_space(field, rng)
        for _ in range(20):
            x, y = (tuple(random_element(field, rng) for _ in range(space.dim))
                    for _ in range(2))
            assert evaluate_form(space, x, y) == dense_form(space, x, y), (space, x, y)


def test_cached_gram_entries_stay_out_of_equality_and_repr():
    field = build_field(3, Flavor.UNITARY)
    space = metabolic_space(field, 2)
    assert space.entries == ((0, 1, 1, 0), (1, 0, 1, 0), (2, 3, 1, 0), (3, 2, 1, 0))
    other = metabolic_space(field, 2)
    object.__setattr__(other, "entries", ())
    assert space == other and hash(space) == hash(other)
    assert repr(space) == repr(other) and "entries" not in repr(space)


def test_subspace_is_a_slotted_frozen_value():
    field = build_field(3, Flavor.SYMPLECTIC)
    line = Subspace.from_vectors([basis_vector(field, 2, 0)], 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        line.basis = ()
    assert not hasattr(line, "__dict__")
    again = Subspace.from_vectors([basis_vector(build_field(3, Flavor.SYMPLECTIC), 2, 0)], 2)
    assert line == again and hash(line) == hash(again)
    other = Subspace.from_vectors([basis_vector(build_field(3, Flavor.UNITARY), 2, 0)], 2)
    assert line != other


def test_degenerate_gram_rejected():
    field = build_field(3, Flavor.SYMPLECTIC)
    zero = field.zero()
    with pytest.raises(ValueError):
        HermitianSpace(field=field, dim=2, gram=((zero, zero), (zero, zero)))


def test_non_alternating_gram_rejected():
    field = build_field(2, Flavor.SYMPLECTIC)
    one, zero = field.one(), field.zero()
    # symmetric with a 1 on the diagonal: skew holds mod 2 but h(e1,e1) != 0
    with pytest.raises(ValueError):
        HermitianSpace(field=field, dim=2, gram=((one, one), (one, zero)))


def test_non_hermitian_gram_rejected():
    field = build_field(3, Flavor.UNITARY)
    x = field.gen()
    one, zero = field.one(), field.zero()
    with pytest.raises(ValueError):
        HermitianSpace(field=field, dim=2, gram=((zero, x), (x, one)))


def test_complement_of_full_and_zero():
    for flavor in Flavor:
        field = build_field(3, flavor)
        space = metabolic_space(field, 2)
        full = Subspace.from_vectors(
            [basis_vector(field, 4, i) for i in range(4)], 4
        )
        zero_sub = Subspace(ambient_dim=4, basis=())
        assert orthogonal_complement(space, full) == zero_sub
        assert orthogonal_complement(space, zero_sub) == full


def test_complement_of_isotropic_line_is_itself_in_plane():
    field = build_field(5, Flavor.SYMPLECTIC)
    space = hyperbolic_plane(field)
    e1 = Subspace.from_vectors([basis_vector(field, 2, 0)], 2)
    assert orthogonal_complement(space, e1) == e1


def test_complement_dimension_and_involution_exhaustive():
    for field in fields_q_le(9):
        for blocks, dim in ((1, 2), (2, 4)):
            space = metabolic_space(field, blocks)
            for sub in all_subspaces(field, dim):
                comp = orthogonal_complement(space, sub)
                assert len(sub.basis) + len(comp.basis) == dim
                assert orthogonal_complement(space, comp) == sub


def test_subspace_enumeration_matches_gaussian_count():
    field = build_field(3, Flavor.SYMPLECTIC)
    assert len(all_subspaces(field, 4)) == gaussian_subspace_count(3, 4)


def test_rref_is_canonical_under_row_mixing():
    field = build_field(5, Flavor.SYMPLECTIC)
    rng = random.Random(11)
    elems = list(field.elements())
    for _ in range(100):
        rows = [[rng.choice(elems) for _ in range(4)] for _ in range(2)]
        mixed = [
            [rows[0][j] + rows[1][j] for j in range(4)],
            [rows[1][j] for j in range(4)],
        ]
        assert rref(rows) == rref(mixed)


@settings(derandomize=True, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), flavor=st.sampled_from(list(Flavor)),
       dim=st.integers(1, 4), m=st.integers(1, 4), data=st.data())
def test_rref_is_canonical_for_random_spanning_sets(p, flavor, dim, m, data):
    """Two random spanning sets of one row space give equal Subspaces."""
    field = build_field(p, flavor)
    elems = list(field.elements())
    units = elems[1:]

    def draw(pool):
        return data.draw(st.sampled_from(pool))

    def combine(coeffs, rows):
        return [sum((c * row[j] for c, row in zip(coeffs, rows)), field.zero())
                for j in range(dim)]

    gens = [[draw(elems) for _ in range(dim)] for _ in range(m)]

    def spanning_set():
        # an upper-triangular change of generators with a nonzero diagonal
        # is invertible; extra combinations and a shuffle keep the span
        rows = [combine([field.zero()] * i + [draw(units)]
                        + [draw(elems) for _ in range(m - i - 1)], gens) for i in range(m)]
        rows += [combine([draw(elems) for _ in range(m)], gens)
                 for _ in range(data.draw(st.integers(0, 2)))]
        return data.draw(st.permutations(rows))

    first = Subspace.from_vectors(spanning_set(), dim)
    assert first == Subspace.from_vectors(spanning_set(), dim)
    assert first.basis == rref(gens)


def test_maximal_isotropic_in_plane():
    field = build_field(3, Flavor.SYMPLECTIC)
    space = hyperbolic_plane(field)
    e1 = Subspace.from_vectors([basis_vector(field, 2, 0)], 2)
    full = Subspace.from_vectors([basis_vector(field, 2, i) for i in range(2)], 2)
    assert is_maximal_isotropic(space, e1)
    assert not is_maximal_isotropic(space, full)


def test_maximal_isotropic_dim4_two_blocks():
    field = build_field(3, Flavor.SYMPLECTIC)
    space = metabolic_space(field, 2)
    lagrangian = Subspace.from_vectors(
        [basis_vector(field, 4, 0), basis_vector(field, 4, 2)], 4
    )
    assert is_maximal_isotropic(space, lagrangian)


def test_maximal_isotropic_rejects_a_foreign_subspace():
    field = build_field(3, Flavor.SYMPLECTIC)
    line = Subspace.from_vectors([basis_vector(field, 2, 0)], 2)
    with pytest.raises(ValueError, match="does not live in this space"):
        is_maximal_isotropic(metabolic_space(field, 2), line)


@pytest.mark.parametrize("p, flavor", [(5, Flavor.SYMPLECTIC), (3, Flavor.UNITARY)])
def test_maximal_isotropic_rejects_a_subspace_over_another_field(p, flavor):
    """The Lagrangian span(e0, e2) built over another field raises, where
    the same span over the space's own field is a Lagrangian."""
    space = metabolic_space(build_field(3, Flavor.SYMPLECTIC), 2)
    own = Subspace.from_vectors([basis_vector(space.field, 4, i) for i in (0, 2)], 4)
    assert is_maximal_isotropic(space, own)
    other = build_field(p, flavor)
    foreign = Subspace.from_vectors([basis_vector(other, 4, i) for i in (0, 2)], 4)
    with pytest.raises(ValueError, match="field mismatch in arithmetic"):
        is_maximal_isotropic(space, foreign)


# (p, flavor, Lagrangians of two hyperbolic planes): (p+1)(p^2+1) for sym,
# (p+1)(p^3+1) for uni
LAGRANGIAN_COUNTS = [(2, Flavor.SYMPLECTIC, 15), (2, Flavor.UNITARY, 27),
                     (3, Flavor.SYMPLECTIC, 40)]


@pytest.mark.parametrize("p,flavor,count", LAGRANGIAN_COUNTS)
def test_maximal_isotropic_agrees_with_the_complement(p, flavor, count):
    """The pairing test against the complement route, on every subspace of
    every dimension 0..4 of two hyperbolic planes."""
    field = build_field(p, flavor)
    space = metabolic_space(field, 2)
    found = 0
    for sub in all_subspaces(field, 4):
        hit = is_maximal_isotropic(space, sub)
        assert hit == (sub == orthogonal_complement(space, sub)), sub
        found += hit
    expected = (p + 1) * (p**2 + 1) if flavor is Flavor.SYMPLECTIC else (p + 1) * (p**3 + 1)
    assert found == expected == count


def test_lagrangian_census_of_three_hyperbolic_planes():
    """(p+1)(p^2+1)(p^3+1) = 135 of the 1395 3-dim subspaces of F_2^6."""
    field = build_field(2, Flavor.SYMPLECTIC)
    space = metabolic_space(field, 3)
    planes = [sub for sub in all_subspaces(field, 6) if len(sub.basis) == 3]
    hits = [is_maximal_isotropic(space, sub) for sub in planes]
    assert hits == [sub == orthogonal_complement(space, sub) for sub in planes]
    assert (sum(hits), len(planes)) == (135, 1395)


@pytest.mark.parametrize("p,flavor", [(p, flavor) for p, flavor, _ in LAGRANGIAN_COUNTS])
def test_maximal_isotropic_needs_no_echelon_basis(p, flavor):
    """Every Lagrangian, given by the basis (b0 + b1, b1) that is not in
    reduced echelon form, still tests True."""
    field = build_field(p, flavor)
    space = metabolic_space(field, 2)
    lagrangians = [sub for sub in all_subspaces(field, 4)
                   if len(sub.basis) == 2 and sub == orthogonal_complement(space, sub)]
    assert lagrangians
    for sub in lagrangians:
        b0, b1 = sub.basis
        mixed = Subspace(ambient_dim=4, basis=(tuple(a + b for a, b in zip(b0, b1)), b1))
        assert mixed != sub and Subspace.from_vectors(mixed.basis, 4) == sub
        assert is_maximal_isotropic(space, mixed)


def brute_force_isotropic_lines(space):
    """Independent census: span every isotropic nonzero vector."""
    field = space.field
    lines = set()
    for v in all_vectors(field, 2):
        if any(v) and not evaluate_form(space, v, v):
            lines.add(Subspace.from_vectors([v], 2))
    return lines


def test_isotropic_line_counts():
    f2 = build_field(2, Flavor.SYMPLECTIC)
    assert len(enumerate_isotropic_lines(hyperbolic_plane(f2))) == 3
    u2 = build_field(2, Flavor.UNITARY)
    space = hyperbolic_plane(u2)
    lines = enumerate_isotropic_lines(space)
    assert len(lines) == 3  # 3 of the 5 projective lines over F_4
    total_lines = {Subspace.from_vectors([v], 2) for v in all_vectors(u2, 2) if any(v)}
    assert len(total_lines) == 5
    f5 = build_field(5, Flavor.SYMPLECTIC)
    assert len(enumerate_isotropic_lines(hyperbolic_plane(f5))) == 6


def test_isotropic_census_against_brute_force():
    for p in (2, 3, 5, 7):
        for flavor in Flavor:
            field = build_field(p, flavor)
            space = hyperbolic_plane(field)
            lines = enumerate_isotropic_lines(space)
            assert len(lines) == p + 1
            assert set(lines) == brute_force_isotropic_lines(space)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), flavor=st.sampled_from(list(Flavor)),
       g00=st.integers(0, 10), g11=st.integers(0, 10),
       g10=st.tuples(st.integers(0, 10), st.integers(0, 10)))
@example(p=5, flavor=Flavor.UNITARY, g00=1, g11=1, g10=(0, 0))  # quadratic in a
@example(p=2, flavor=Flavor.UNITARY, g00=1, g11=1, g10=(1, 0))  # quadratic over F_2
@example(p=3, flavor=Flavor.UNITARY, g00=1, g11=0, g10=(0, 1))  # Tr(g10) = g11 = 0
@example(p=7, flavor=Flavor.UNITARY, g00=3, g11=0, g10=(2, 5))  # linear in a
@example(p=11, flavor=Flavor.SYMPLECTIC, g00=0, g11=0, g10=(4, 0))
def test_isotropic_lines_of_random_gram_against_brute_force(p, flavor, g00, g11, g10):
    """Any non-degenerate 2x2 Gram matrix, not just the hyperbolic plane."""
    field = build_field(p, flavor)
    if flavor is Flavor.SYMPLECTIC:
        c = field.elem(g10[0])
        assume(c)
        gram = ((field.zero(), -c), (c, field.zero()))
    else:
        d0, d1, lower = field.elem(g00), field.elem(g11), field.elem(*g10)
        assume(d0 * d1 - lower * lower.conj())
        gram = ((d0, lower.conj()), (lower, d1))
    space = HermitianSpace(field=field, dim=2, gram=gram)
    lines = enumerate_isotropic_lines(space)
    assert set(lines) == brute_force_isotropic_lines(space)
    assert len(lines) == p + 1
    keys = [tuple(e.c0 + e.c1 * p for e in line.basis[0]) for line in lines]
    assert keys == sorted(set(keys))
    assert all(line == Subspace.from_vectors(line.basis, 2) for line in lines)
    # the integer core, wrapped into subspaces by hand, is the same list
    one = field.one()
    wrapped = [Subspace.from_vectors([(field.zero(), one) if slope is None
                                      else (one, field.elem(*slope))], 2)
               for slope in isotropic_slopes(space)]
    assert wrapped == lines


def test_enumerate_requires_dim2():
    field = build_field(3, Flavor.SYMPLECTIC)
    with pytest.raises(ValueError):
        enumerate_isotropic_lines(metabolic_space(field, 2))


def test_local_plane_structure():
    for p, flavor in ((2, Flavor.SYMPLECTIC), (3, Flavor.SYMPLECTIC), (2, Flavor.UNITARY)):
        field = build_field(p, flavor)
        plane = build_local_plane(field)
        assert len(plane.ramified_lines) == p
        assert plane.unramified_line not in plane.ramified_lines
        everything = {plane.unramified_line, *plane.ramified_lines}
        assert everything == brute_force_isotropic_lines(plane.space)
        for line in everything:
            assert is_maximal_isotropic(plane.space, line)


def test_kummer_fiber_sizes_and_examples():
    # p=2, n=1: one index per line
    field = build_field(2, Flavor.SYMPLECTIC)
    plane = build_local_plane(field)
    hits = [kummer_line_of_character(plane, i, 1) for i in range(2)]
    assert hits == list(plane.ramified_lines)
    # p=3, n=1: two indices per line
    field3 = build_field(3, Flavor.SYMPLECTIC)
    plane3 = build_local_plane(field3)
    hits3 = [kummer_line_of_character(plane3, i, 1) for i in range(6)]
    for j, line in enumerate(plane3.ramified_lines):
        assert hits3.count(line) == 2
        assert hits3[2 * j] == hits3[2 * j + 1] == line
    # p=2, n=2: four indices per line
    hits22 = [kummer_line_of_character(plane, i, 2) for i in range(8)]
    for line in plane.ramified_lines:
        assert hits22.count(line) == 4


def test_kummer_fiber_balance_exhaustive():
    for p in (2, 3):
        for n in (1, 2):
            field = build_field(p, Flavor.SYMPLECTIC)
            plane = build_local_plane(field)
            total = p * fiber_size(p, n)
            counts = {}
            for i in range(total):
                line = kummer_line_of_character(plane, i, n)
                counts[line] = counts.get(line, 0) + 1
            assert set(counts) == set(plane.ramified_lines)
            assert all(c == fiber_size(p, n) for c in counts.values())


def test_fiber_size_rejects_n_below_one():
    assert fiber_size(3, 1) == 2
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            fiber_size(3, n)
    plane = build_local_plane(build_field(2, Flavor.SYMPLECTIC))
    with pytest.raises(ValueError, match="n must be >= 1"):
        kummer_line_of_character(plane, 0, 0)


def test_kummer_index_out_of_range():
    field = build_field(2, Flavor.SYMPLECTIC)
    plane = build_local_plane(field)
    with pytest.raises(ValueError):
        kummer_line_of_character(plane, 2, 1)
    with pytest.raises(ValueError):
        kummer_line_of_character(plane, -1, 1)
