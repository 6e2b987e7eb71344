"""Acceptance battery: one test per criterion, one printed line each.

Every check is exact (integer / finite-field / cyclotomic-canonical-form
equality); the only tolerances are the stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from forge.congruence import (
    MatrixRep,
    build_space,
    builtin_free_model,
    builtin_nonfree_model,
    builtin_cyclic_model,
    decompose_rational,
    nonconstant_check,
    quotient_map_check,
    verify_congruence_theorem,
)
from forge.cuspcheck import (
    TruncatedMatrix,
    cusp_integral_check,
    default_samples,
    elliptic_seed,
    fourier_support_check,
    lambda_character,
    log_truncated,
    unipotent_support_profiles,
    x_class_representatives,
)
from forge.depthcalc import character_image_order, unramified_torus_lattice
from forge.linalg import mat_mul
from forge.rootsys import (
    RootSystemType,
    build_root_system,
    coxeter_number,
    is_elliptic,
    weyl_from_word,
)
from forge.sweep import (
    SweepConfig,
    all_irreducible_types,
    report_to_json,
    run_sweep,
    smallest_primes_above,
)
from forge.toraldata import (
    build_dodd_coordinates,
    build_generic_element,
    twist_datum,
    verify_datum,
    verify_genericity,
)
from oracles import (
    cyclotomic_exponents,
    fourier_indicator,
    highest_coroot,
    weyl_apply,
    weyl_order,
)


def announce(num: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {num:2d} [{label}] {status}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def sweep_data():
    """Shared grid: every irreducible type of rank <= 8, two primes above
    the Coxeter number, q = p, n in {1, 2}.  Build time is reported so the
    consuming criteria can charge it against their budgets."""
    t0 = time.monotonic()
    data = []
    for t in all_irreducible_types(8):
        for p in smallest_primes_above(coxeter_number(t), 2):
            for n in (1, 2):
                data.append(build_generic_element(t, None, p, p, n))
    return data, time.monotonic() - t0


def test_criterion_01_coxeter_table():
    expected = {}
    for s in range(1, 9):
        expected[("A", s)] = s + 1
    for s in range(2, 9):
        expected[("B", s)] = 2 * s
    for s in range(3, 9):
        expected[("C", s)] = 2 * s
    for s in range(4, 9):
        expected[("D", s)] = 2 * s - 2
    expected.update(
        {("E", 6): 12, ("E", 7): 18, ("E", 8): 30, ("F", 4): 12, ("G", 2): 6}
    )
    t0 = time.monotonic()
    got = {
        (fam, s): coxeter_number(RootSystemType(fam, s)) for (fam, s) in expected
    }
    elapsed = time.monotonic() - t0
    announce(
        1,
        "coxeter-table",
        got == expected and elapsed < 0.001,
        f"{len(expected)} entries in {elapsed*1e6:.0f} us",
    )


def test_criterion_02_e6_battery():
    rs = build_root_system(RootSystemType.parse("E6"))  # cache warm-up
    t0 = time.monotonic()
    wh = weyl_from_word(rs, [2, 3, 5, 1, 4, 6])
    ok = weyl_order(wh) == 12
    ok = ok and cyclotomic_exponents(wh, 12) == (1, 4, 5, 7, 8, 11)
    w = wh.power(4)
    ok = ok and is_elliptic(w)
    action = {
        1: (-1, -1, -1, -1, 0, 0),
        2: (1, 0, 1, 1, 1, 1),
        3: (1, 1, 1, 2, 1, 0),
        4: (-1, -1, -2, -3, -2, -1),
        5: (0, 1, 1, 2, 1, 1),
        6: (0, -1, 0, -1, -1, -1),
    }
    for i, img in action.items():
        ok = ok and weyl_apply(w, rs.simple_coroots[i - 1]).expansion == img
    elapsed = time.monotonic() - t0
    announce(2, "e6-battery", ok and elapsed < 0.1, f"{elapsed*1e3:.1f} ms")


def test_criterion_03_dodd_battery():
    ok = True
    worst = 0.0
    for s in (5, 7):
        for p in smallest_primes_above(2 * s - 2, 2):
            t0 = time.monotonic()
            spec, coords = build_dodd_coordinates(s, p, 1)
            res = spec.residue
            # the four generator relations and the b-difference identity
            total = res.zero()
            for c in coords:
                total = res.add(total, c)
            for i in range(s - 3):
                ok = ok and res.frobenius(coords[i]) == coords[i + 1]
            ok = ok and res.frobenius(coords[s - 3]) == total
            head = res.zero()
            for c in coords[: s - 1]:
                head = res.add(head, c)
            ok = ok and res.frobenius(coords[s - 2]) == res.neg(head)
            head2 = res.zero()
            for c in coords[: s - 2]:
                head2 = res.add(head2, c)
            ok = ok and res.frobenius(coords[s - 1]) == res.neg(
                res.add(head2, coords[s - 1])
            )
            b = res.generator_power((p ** (2 * (s - 1)) - 1) // (2 * (p - 1)))
            ok = ok and res.sub(coords[s - 2], coords[s - 1]) == b
            datum = build_generic_element(RootSystemType("D", s), None, p, p, 1)
            rep = verify_datum(datum)
            ok = ok and rep.verdict and len(rep.coroot_rows) == 2 * s * (s - 1)
            worst = max(worst, time.monotonic() - t0)
    announce(3, "dodd-battery", ok and worst < 10.0, f"worst instance {worst:.2f} s")


def test_criterion_04_full_sweep(sweep_data):
    data, build_seconds = sweep_data
    t0 = time.monotonic()
    failures = []
    for datum in data:
        rep = verify_datum(datum)
        if not rep.verdict:
            failures.append((str(datum.rs.type), datum.p, datum.n))
    elapsed = build_seconds + (time.monotonic() - t0)
    count = len(data)
    announce(
        4,
        "full-abundance-sweep",
        not failures and count == 124 and elapsed < 60.0,
        f"{count} data built+verified in {elapsed:.1f} s",
    )


def test_criterion_05_highest_coroot_identity():
    ok = True
    for t in all_irreducible_types(8):
        rs = build_root_system(t)
        ok = ok and highest_coroot(rs).height == coxeter_number(t) - 1
    announce(5, "highest-coroot-identity", ok)


def test_criterion_06_trace_zero_witnesses(trace_zero_battery):
    ok = len(trace_zero_battery) > 100
    checked_exhaustive = 0
    for ext, e, witnesses in trace_zero_battery:
        ok = ok and not ext.is_zero(e)
        ok = ok and ext.is_zero(ext.trace(e))
        ok = ok and ext.minimal_polynomial_degree(e) == ext.n
        if witnesses is not None:
            ok = ok and witnesses and e in witnesses
            checked_exhaustive += 1
    announce(
        6,
        "trace-zero-witnesses",
        bool(ok),
        f"{len(trace_zero_battery)} extensions, {checked_exhaustive} exhaustive",
    )


def test_criterion_07_level_arithmetic():
    ok = True
    for e_F in (1, 2, 3):
        lat = unramified_torus_lattice(1, e_F)
        for m in (1, 2, 3, 4):
            n = 2 * e_F * m - 1
            for r in (Fraction(n) + Fraction(1, 2), Fraction(n + 1)):
                ok = ok and character_image_order(r, lat) == m
                if m >= 2:
                    ok = ok and character_image_order(r - 2 * e_F, lat) == m - 1
    announce(7, "level-arithmetic", ok)


def test_criterion_08_twist_window(sweep_data):
    ok = True
    data, _ = sweep_data
    for datum in data:
        p, n = datum.p, datum.n
        m = n // 2 + 1
        for texp in range(m):
            for unit in (1, p - 1 if p > 2 else 1):
                i = p**texp * unit
                if not 0 < i < p**m:
                    continue
                twisted = twist_datum(datum, i, m)
                ok = ok and verify_genericity(twisted).genericity_ok
                v = texp  # e_F = 1
                ok = ok and twisted.depth == datum.depth - v
                ok = ok and datum.depth - v > datum.depth / 2
        if not ok:
            break
    announce(8, "twist-window", ok, f"{len(data)} data twisted")


def test_criterion_09_congruence_model():
    t0 = time.monotonic()
    ok = True
    p = 3
    for m in (1, 2):
        model = builtin_free_model(p, m)
        for N in (1, 2):
            rep = verify_congruence_theorem(model, N=N)
            ok = ok and rep.passed
            ok = ok and all(h["equal"] for h in rep.details["hecke"])
        space = build_space(model, "am_psi")
        dec = decompose_rational(space)
        triv_dim = len(space.orbit_reps)
        ok = ok and dec["rational_dimension"] == (p**m - 1) * triv_dim
        free_ok, _ = quotient_map_check(model)
        ok = ok and free_ok
        if m >= 2:
            nonfree_ok, _ = quotient_map_check(builtin_nonfree_model(p, m))
            ok = ok and not nonfree_ok
    elapsed = time.monotonic() - t0
    announce(9, "congruence-model", ok and elapsed < 5.0, f"{elapsed:.2f} s")


def test_criterion_10_nonconstant_coefficients():
    p = 3
    model = builtin_cyclic_model(p, 3)
    rep = MatrixRep(2, 3, {1: ((1, p**2), (0, 1))})
    out2 = nonconstant_check(model, rep, 2)
    out3 = nonconstant_check(model, rep, 3)
    ok = out2.passed and not out2.details["shrink"]
    ok = ok and not out3.passed and out3.details["shrink"]
    ok = ok and out3.details["trivial_level"] == 2
    announce(10, "nonconstant-coefficients", ok)


def test_criterion_11_cusp_battery():
    t0 = time.monotonic()
    p, K = 5, 8
    seed = elliptic_seed(p, K)  # certificate checks run inside
    ok = True
    for m in (1, 2):
        n = m + 2
        char = lambda_character(seed, n, m)  # generator pairs
        # 100 random pairs: additive, and each value is the pairing of the log
        rng = random.Random(91_000 + p * 37 + n * 7 + m)
        for _ in range(100):
            a, b = char.random_element(rng), char.random_element(rng)
            ab = mat_mul(a, b, p**K)
            ok = ok and char.value(ab) == (char.value(a) + char.value(b)) % p**m
            for g in (a, b, ab):
                ok = ok and char.value(g) == char.value_of_algebra(log_truncated(g, p, K))
        samples = default_samples(char, 20)
        profiles = unipotent_support_profiles(char, samples)
        nonempty = sum(1 for prof in profiles if prof["support_points_mod_period"])
        ok = ok and nonempty >= 10
        for x in x_class_representatives(p, m):
            out = cusp_integral_check(char, x, profiles=profiles)
            ok = ok and out["passed"]
        four = fourier_support_check(seed, m, 1)
        ok = ok and four["indicator"] == 1
    seed3 = elliptic_seed(3, 3)
    four3 = fourier_indicator(seed3, 1, 1, K=2, validate_by_enumeration=True)
    ok = ok and four3["indicator"] == 1 and four3["indicator_validated"]
    ok = ok and fourier_support_check(seed3, 1, 1, K=2) == {
        key: four3[key] for key in ("pairings", "integral", "indicator")
    }
    pole = TruncatedMatrix(3, 3, 1, ((0, 1), (0, 0)))
    shifted = pole.add(seed3.y_functional(1).scale_by_int(-1))
    four0 = fourier_indicator(
        seed3, 1, 1, K=2, y_shift=shifted, validate_by_enumeration=True
    )
    ok = ok and four0["indicator"] == 0 and four0["indicator_validated"]
    elapsed = time.monotonic() - t0
    announce(11, "cusp-battery", ok and elapsed < 30.0, f"{elapsed:.1f} s")


def test_criterion_12_sweep_determinism():
    config = SweepConfig(types=tuple(all_irreducible_types(8)))
    first = report_to_json(run_sweep(config)["report"])
    second = report_to_json(run_sweep(config)["report"])
    third = report_to_json(run_sweep(config)["report"])
    ok = first == second == third and json.loads(first)["failures"] == 0
    announce(12, "sweep-determinism", ok, f"{len(first)} bytes")
