"""Finite-field layer: Frobenius, trace-zero witnesses, generator powers.

Oracles: exhaustive enumeration for small fields, integer exponent
arithmetic modulo q^n - 1 for the generator-power identities.
"""

import json

import pytest
from hypothesis import given, strategies as st

from forge.ffield import build_extension, extension_from_json


def test_build_f25_frobenius_is_fifth_power():
    ext = build_extension(5, 1, 2)
    for enc in range(25):
        a = ext.from_int(enc)
        assert ext.frobenius(a) == ext.pow(a, 5)


def test_sigma_n_is_identity_f3_8():
    ext = build_extension(3, 1, 8)
    for enc in (0, 1, 2, 5, 100, 2500, 6560):
        a = ext.from_int(enc)
        assert ext.frobenius(a, 8) == a


def test_f11_8_constructs_quickly():
    import time

    t0 = time.monotonic()
    ext = build_extension(11, 1, 8)
    assert ext.q**ext.n == 11**8
    assert time.monotonic() - t0 < 1.0


def test_frobenius_zero_power_and_base_field_fixed():
    ext = build_extension(7, 1, 3)
    a = ext.from_int(123)
    assert ext.frobenius(a, 0) == a
    for c in range(7):
        x = ext.from_int(c)
        for k in range(1, 4):
            assert ext.frobenius(x, k) == x


def test_f9_frobenius_exhaustive():
    ext = build_extension(3, 1, 2)
    for enc in range(9):
        a = ext.from_int(enc)
        assert ext.frobenius(a) == ext.pow(a, 3)


@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_frobenius_is_field_automorphism(x, y):
    ext = build_extension(5, 1, 3)
    a, b = ext.from_int(x), ext.from_int(y)
    assert ext.frobenius(ext.add(a, b)) == ext.add(ext.frobenius(a), ext.frobenius(b))
    assert ext.frobenius(ext.mul(a, b)) == ext.mul(ext.frobenius(a), ext.frobenius(b))


def test_fixed_set_of_frobenius_is_base_field():
    for (p, f, n) in [(3, 1, 2), (5, 1, 2), (3, 1, 4), (3, 2, 2), (7, 1, 2)]:
        ext = build_extension(p, f, n)
        if ext.q**n > 10**4:
            continue
        fixed = [a for a in ext.elements() if ext.frobenius(a) == a]
        assert len(fixed) == ext.q
        assert all(ext.in_base_field(a) for a in fixed)


def test_trace_lands_in_base_field():
    ext = build_extension(5, 1, 3)
    for enc in range(0, 125, 7):
        a = ext.from_int(enc)
        assert ext.in_base_field(ext.trace(a))


def test_trace_zero_witness_f9_exhaustive_oracle():
    ext = build_extension(3, 1, 2)
    e = ext.find_trace_zero_generator()
    witnesses = [
        a
        for a in ext.elements()
        if not ext.is_zero(a)
        and ext.is_zero(ext.trace(a))
        and ext.minimal_polynomial_degree(a) == 2
    ]
    assert witnesses, "oracle: witnesses must exist"
    assert e in witnesses


def test_trace_zero_witness_f125():
    ext = build_extension(5, 1, 3)
    e = ext.find_trace_zero_generator()
    assert not ext.is_zero(e)
    assert ext.is_zero(ext.trace(e))
    assert ext.minimal_polynomial_degree(e) == 3


def test_trace_zero_witness_precondition_violations():
    with pytest.raises(ValueError):
        build_extension(2, 1, 2).find_trace_zero_generator()
    with pytest.raises(ValueError):
        build_extension(3, 1, 1).find_trace_zero_generator()


def test_trace_zero_sweep_small(trace_zero_battery):
    # all prime powers q and degrees n >= 2 with q^n <= 10^6 and p not | n
    assert len(trace_zero_battery) > 50
    for ext, e, found in trace_zero_battery:
        assert not ext.is_zero(e)
        assert ext.is_zero(ext.trace(e))
        assert ext.minimal_polynomial_degree(e) == ext.n
        # exhaustive cross-check on the small range
        if found is not None:
            assert e in found


def test_partial_orbit_sums_nonzero():
    for (p, f, n) in [(5, 1, 3), (3, 1, 4), (11, 1, 4), (7, 1, 5)]:
        ext = build_extension(p, f, n)
        e = ext.find_trace_zero_generator()
        acc = e
        for j in range(1, n - 1):
            acc = ext.add(acc, ext.frobenius(e, j))
            assert not ext.is_zero(acc)


def test_generator_power_identity_and_exponent_oracle():
    # q = 3, s = 5: the two special powers in F_{3^8}
    q, s = 3, 5
    ext = build_extension(q, 1, 2 * s - 2)
    order = q ** (2 * s - 2) - 1
    ea = (q ** (s - 1) + 1) // 2
    a = ext.generator_power(ea)
    # exponent oracle: sigma^{s-1}(a) = zeta^{ea * q^{s-1}}, and
    # ea * q^{s-1} = ea + order/2 (mod order), so sigma^{s-1}(a) = -a.
    assert (ea * q ** (s - 1) - ea - order // 2) % order == 0
    assert ext.frobenius(a, s - 1) == ext.neg(a)
    eb = (q ** (2 * (s - 1)) - 1) // (2 * (q - 1))
    b = ext.generator_power(eb)
    assert (eb * q - eb - order // 2) % order == 0
    assert ext.frobenius(b) == ext.neg(b)


def test_generator_power_zero_exponent():
    ext = build_extension(3, 1, 2)
    assert ext.generator_power(0) == ext.one()


def test_generator_has_full_order_f49():
    ext = build_extension(7, 1, 2)
    g = ext.multiplicative_generator()
    seen = set()
    cur = ext.one()
    for _ in range(48):
        cur = ext.mul(cur, g)
        seen.add(cur)
    assert len(seen) == 48


def test_extension_json_round_trip():
    ext = build_extension(5, 1, 3)
    again = extension_from_json(ext.to_json())
    assert again.to_json() == ext.to_json()
    a = ext.from_int(97)
    assert ext.element_from_json(ext.element_to_json(a)) == a


@pytest.mark.parametrize("key, value", [("p", 7.0), ("f", 1.0), ("n", 2.0), ("f", True)])
def test_extension_json_rejects_float_and_bool(key, value):
    data = build_extension(7, 1, 2).to_json_dict()
    with pytest.raises(ValueError):
        extension_from_json(json.dumps({**data, key: value}))


def test_q_may_be_prime_power():
    ext = build_extension(3, 2, 2)  # F_81 over F_9
    assert ext.q == 9
    assert ext.base is build_extension(3, 1, 2)
    a = ext.from_int(50)
    assert ext.frobenius(a, 2) == a
    assert ext.frobenius(a) == ext.pow(a, 9)


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        build_extension(6, 1, 2)
