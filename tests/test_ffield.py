"""Finite-field layer: Frobenius, trace-zero witnesses, generator powers.

Oracles: exhaustive enumeration for small fields, integer exponent
arithmetic modulo q^n - 1 for the generator-power identities.
"""

import json

import pytest
import sympy
from hypothesis import given, strategies as st

from forge.ffield import FieldExtension, build_extension


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
        assert all(a[1:] == ext.zero()[1:] for a in fixed)


def test_trace_lands_in_base_field():
    ext = build_extension(5, 1, 3)
    for enc in range(0, 125, 7):
        a = ext.from_int(enc)
        assert ext.trace(a)[1:] == ext.zero()[1:]


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


def _per_prime_verdicts(ext):
    """The generator test as it was, c^((Q - 1)/ell) != 1 at each prime
    ell | Q - 1, for every nonzero c in encoding order.  The powers are read
    off a table of g^k for a g whose Q - 1 powers are distinct, so g has full
    order; square-and-multiply per prime would take ~30 s on F_{(5^2)^3}."""
    order, one = ext.size - 1, ext.one()
    g = ext.multiplicative_generator()
    powers = [one]
    for _ in range(order - 1):
        powers.append(ext.mul(powers[-1], g))
    log = {a: k for k, a in enumerate(powers)}
    assert len(log) == order
    primes = sympy.primefactors(order)
    return [
        all(powers[log[ext.from_int(enc)] * (order // ell) % order] != one for ell in primes)
        for enc in range(1, ext.size)
    ]


@pytest.mark.parametrize(
    "p,f,n",
    # q - 1 and (q^n - 1)/(q - 1) share the prime 2 in F_{5^2} and F_{(3^2)^2},
    # 3 in F_{7^3}, F_{13^3} and F_{(5^2)^3}; in F_{2^6}, q - 1 = 1 has none
    [(5, 1, 2), (7, 1, 3), (3, 2, 2), (13, 1, 3), (5, 2, 3), (2, 1, 6)],
    ids=["F_5^2", "F_7^3", "F_(3^2)^2", "F_13^3", "F_(5^2)^3", "F_2^6"],
)
def test_full_order_test_agrees_with_per_prime_test(p, f, n):
    ext = build_extension(p, f, n)
    verdicts = [ext.has_full_order(ext.from_int(enc)) for enc in range(1, ext.size)]
    assert verdicts == _per_prime_verdicts(ext)
    assert sum(verdicts) == sympy.totient(ext.size - 1)
    assert ext.multiplicative_generator() == ext.from_int(verdicts.index(True) + 1)


def test_norm_is_the_power_into_the_base_field():
    for (p, f, n) in [(7, 1, 3), (3, 2, 2), (2, 1, 6), (5, 1, 1)]:
        ext = build_extension(p, f, n)
        for enc in range(0, ext.size, 1 + ext.size // 60):
            a = ext.from_int(enc)
            assert ext.norm(a) == ext.pow(a, (ext.size - 1) // (ext.q - 1))
            assert ext.norm(a)[1:] == ext.zero()[1:]


@pytest.mark.parametrize("p,enc", [(2, 1), (3, 2), (7, 3)])
def test_generator_of_prime_field(p, enc):
    # F_2's unit group is trivial, so its generator is 1
    ext = build_extension(p, 1, 1)
    assert ext.multiplicative_generator() == ext.from_int(enc)


def test_generator_search_exponent_budget():
    # a fresh instance, so the search runs cold; every element below
    # encoding 289 lies in F_289, and the winner is 292
    ext = FieldExtension(17, 2, 12)
    exponent_bits = []
    pow_ = ext.pow
    ext.pow = lambda a, e: exponent_bits.append(e.bit_length()) or pow_(a, e)
    assert ext.encode(ext.multiplicative_generator()) == 292
    assert sum(exponent_bits) <= 4 * (ext.size - 1).bit_length()


def test_extension_json_round_trip():
    ext = build_extension(5, 1, 3)
    a = ext.from_int(97)
    assert ext.element_from_json(ext.element_to_json(a)) == a


@pytest.mark.parametrize("key, value", [("p", 7.0), ("f", 1.0), ("n", 2.0), ("f", True)])
def test_extension_json_rejects_float_and_bool(key, value):
    # an extension is read from JSON only inside a datum
    from forge.rootsys import RootSystemType
    from forge.toraldata import build_generic_element, datum_from_json

    data = json.loads(build_generic_element(RootSystemType.parse("A1"), None, 7).to_json())
    datum_from_json(json.dumps(data))
    data["ext"]["residue"][key] = value
    with pytest.raises(ValueError):
        datum_from_json(json.dumps(data))


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
