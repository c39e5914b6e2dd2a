import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistrank.gf import MAX_P, Flavor, FqElem, build_field
from twistrank.rankdist import stationary_distribution

from oracles import DOMAIN_PRIMES, SMALL_PRIMES, fields_q_le, primes_up_to


def test_build_field_symplectic():
    field = build_field(2, Flavor.SYMPLECTIC)
    assert field.q == 2
    assert field.modulus is None


def test_build_field_unitary_f4_modulus():
    field = build_field(2, Flavor.UNITARY)
    assert field.q == 4
    # x^2+x+1 is the only monic irreducible quadratic over F_2: check all four
    irreducible = []
    for a1 in range(2):
        for a0 in range(2):
            if all((r * r + a1 * r + a0) % 2 != 0 for r in range(2)):
                irreducible.append((a1, a0))
    assert irreducible == [(1, 1)]
    assert field.modulus == (1, 1)


def test_build_field_unitary_f9_modulus():
    field = build_field(3, Flavor.UNITARY)
    assert field.q == 9
    # -1 is a non-residue mod 3, so the modulus is x^2 + 1; confirm no roots
    assert field.modulus == (0, 1)
    assert all((r * r + 1) % 3 != 0 for r in range(3))


def test_unitary_modulus_is_irreducible_over_domain():
    """For every p <= 2^15 the chosen modulus has no root in F_p, so it is
    irreducible and F_p[x]/(modulus) is the field F_{p^2}."""
    for p in DOMAIN_PRIMES:
        a1, a0 = build_field(p, Flavor.UNITARY).modulus
        a = np.arange(p, dtype=np.int64)
        assert ((a * a + a1 * a + a0) % p).all()


def test_build_field_rejects_nonprime():
    with pytest.raises(ValueError):
        build_field(10, Flavor.SYMPLECTIC)
    with pytest.raises(ValueError):
        build_field(1, Flavor.UNITARY)


def test_build_field_rejects_oversized_prime():
    with pytest.raises(ValueError):
        build_field(65537, Flavor.SYMPLECTIC)
    assert MAX_P == 1 << 15


def test_build_field_takes_numpy_integer_primes_as_ints():
    # an np.int64 q would wrap stationary_distribution's q^r at rank 32 (p = 2
    # uni), and an odd numpy p would fail in smallest_nonresidue's pow
    for p in np.array(primes_up_to(60)):
        for flavor in Flavor:
            field, want = build_field(p, flavor), build_field(int(p), flavor)
            assert field == want and type(field.p) is type(field.q) is int
            law, want_law = stationary_distribution(field), stationary_distribution(want)
            assert law.tobytes() == want_law.tobytes()


def test_f4_multiplication_by_hand():
    field = build_field(2, Flavor.UNITARY)
    x = field.gen()
    assert x * x == field.elem(1, 1)  # x^2 = x + 1


def test_multiplicative_identity():
    for field in fields_q_le(25):
        one = field.one()
        for a in field.elements():
            assert a * one == a


def test_f3_inverse_of_two():
    field = build_field(3, Flavor.SYMPLECTIC)
    assert field.elem(2).inv() == field.elem(2)


def test_inverse_of_zero_raises():
    for flavor in Flavor:
        field = build_field(3, flavor)
        with pytest.raises(ZeroDivisionError):
            field.zero().inv()


def test_inverse_times_self_is_one():
    for field in fields_q_le(49):
        one = field.one()
        for a in field.elements():
            if a:
                assert a * a.inv() == one


def test_conj_identity_on_prime_field():
    for p in SMALL_PRIMES:
        field = build_field(p, Flavor.SYMPLECTIC)
        for a in field.elements():
            assert a.conj() == a


def test_conj_f4():
    field = build_field(2, Flavor.UNITARY)
    x = field.gen()
    assert x.conj() == field.elem(1, 1)  # x^2 = x + 1


def test_conj_f9():
    field = build_field(3, Flavor.UNITARY)
    x = field.gen()
    assert x.conj() == -x  # x^3 = x * x^2 = -x with modulus x^2 + 1


def test_conj_fixes_prime_subfield_in_extension():
    field = build_field(5, Flavor.UNITARY)
    for c0 in range(5):
        assert field.elem(c0).conj() == field.elem(c0)


def test_field_axioms_on_seeded_random_triples():
    for field in [build_field(13, Flavor.SYMPLECTIC), build_field(7, Flavor.UNITARY)]:
        rng = random.Random(20240601)
        elems = list(field.elements())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_conj_is_multiplicative_involution_exhaustive():
    for field in fields_q_le(49):
        for a in field.elements():
            assert a.conj().conj() == a
            for b in field.elements():
                assert (a * b).conj() == a.conj() * b.conj()


def test_multiplicative_group_order_exhaustive():
    for field in fields_q_le(49):
        one = field.one()
        for a in field.elements():
            if a:
                assert a ** (field.q - 1) == one


def test_pow_negative_exponent():
    field = build_field(5, Flavor.UNITARY)
    for a in field.elements():
        if a:
            assert a**-1 == a.inv()
            assert a**-3 == (a * a * a).inv()


def test_int_coercion_in_arithmetic():
    # an int is not a field element: field.elem(c0) makes one
    field = build_field(7, Flavor.SYMPLECTIC)
    a = field.elem(3)
    for operation in (lambda: a + 5, lambda: 2 * a, lambda: a - 10):
        with pytest.raises(TypeError):
            operation()


def test_mixed_field_arithmetic_rejected():
    a = build_field(3, Flavor.SYMPLECTIC).elem(1)
    b = build_field(5, Flavor.SYMPLECTIC).elem(1)
    with pytest.raises(ValueError):
        a + b
    # equal fields built twice are distinct objects but still one field
    f, g = build_field(5, Flavor.UNITARY), build_field(5, Flavor.UNITARY)
    assert f is not g and f == g
    assert f.gen() * g.gen() == f.elem(2)  # x^2 = 2 with modulus x^2 - 2
    assert f.gen() + g.one() == g.elem(1, 1)
    with pytest.raises(ValueError):
        f.gen() * build_field(5, Flavor.SYMPLECTIC).one()
    with pytest.raises(ValueError):
        f.gen() - build_field(7, Flavor.UNITARY).gen()


def test_field_element_is_a_slotted_frozen_value():
    a = build_field(5, Flavor.UNITARY).elem(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.c0 = 1
    assert not hasattr(a, "__dict__")
    # equal elements of one field built twice are equal and hash equal
    b = build_field(5, Flavor.UNITARY).elem(2, 3)
    assert a == b and hash(a) == hash(b)
    # equal coordinates in different fields are different elements
    assert build_field(3, Flavor.SYMPLECTIC).elem(1) != build_field(5, Flavor.SYMPLECTIC).elem(1)
    assert build_field(3, Flavor.SYMPLECTIC).one() != build_field(3, Flavor.UNITARY).one()
    assert a != build_field(7, Flavor.UNITARY).elem(2, 3)


def test_str_of_field_elements():
    f4, f9 = build_field(2, Flavor.UNITARY), build_field(3, Flavor.UNITARY)
    assert [str(a) for a in f4.elements()] == ["0", "1", "x", "x+1"]
    assert [str(a) for a in f9.elements()][3:] == ["x", "x+1", "x+2", "2x", "2x+1", "2x+2"]
    assert str(build_field(7, Flavor.SYMPLECTIC).elem(6)) == "6"


def test_str_is_the_text_of_every_element():
    """str(FqElem) is the text of c0 + c1*x that this test builds term by
    term: over every element of F_4, F_9, F_25 and F_49, and on 1000 seeded
    elements of F_{32749^2}. It is also the text of the rows
    tests/test_cli.py expects from `isotropic`."""

    def text(c0, c1):
        terms = [("" if c1 == 1 else str(c1)) + "x"] if c1 else []
        return "+".join(terms + [str(c0)] if c0 or not c1 else terms)

    for p in (2, 3, 5, 7):
        for a in build_field(p, Flavor.UNITARY).elements():
            assert str(a) == text(a.c0, a.c1)
    field = build_field(32749, Flavor.UNITARY)
    rng = random.Random(21)
    for _ in range(1000):
        a = FqElem(field, rng.randrange(field.p), rng.randrange(field.p))
        assert str(a) == text(a.c0, a.c1)
    assert str(build_field(11, Flavor.SYMPLECTIC).elem(7)) == text(7, 0) == "7"


@settings(derandomize=True, deadline=None)
@given(p=st.sampled_from(DOMAIN_PRIMES), flavor=st.sampled_from(list(Flavor)),
       c0=st.integers(0, MAX_P), c1=st.integers(0, MAX_P))
@example(p=2, flavor=Flavor.UNITARY, c0=0, c1=1)
@example(p=32749, flavor=Flavor.UNITARY, c0=32748, c1=32748)
@example(p=32749, flavor=Flavor.SYMPLECTIC, c0=32748, c1=0)
def test_closed_form_conj_and_inverse(p, flavor, c0, c1):
    """conj and inv agree with the powers a^p and a^(q-2) over p <= 2^15."""
    field = build_field(p, flavor)
    a = field.elem(c0, c1 if flavor is Flavor.UNITARY else 0)
    assert a.conj() == a ** p
    if a:
        assert a.inv() == a ** (field.q - 2)
        assert a * a.inv() == field.one()
