"""Generic-element data: builders, descent, genericity, assembly, twists.

The ground truth throughout is brute-force residue evaluation over the
full coroot set of each lattice.
"""

import copy
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, strategies as st

from forge.rootsys import (
    DiagramAutomorphism,
    RootSystemType,
    WeylElement,
    build_root_system,
    standard_involution,
    trivial_automorphism,
)
from forge.sweep import SweepConfig, all_irreducible_types
from forge import kernel, linalg
from forge.toraldata import (
    CASE_KINDS,
    ZeroToralDatum,
    build_dodd_coordinates,
    build_e6_coordinates,
    build_generic_element,
    datum_from_json,
    lattice_case,
    lattice_cocycle,
    residue_degree,
    twist_datum,
    verify_datum,
    verify_galois_descent,
    verify_genericity,
)
from oracles import field_elements, genericity_by_sum

T = RootSystemType.parse


# ---------------------------------------------------------------------------
# case-1 data
# ---------------------------------------------------------------------------


def test_b2_case1_unramified_brute_force():
    d = build_generic_element(T("B2"), None, 5, 5, 1)
    assert d.case == "Case1-unram"
    assert d.depth == 2
    res = d.ext.residue
    a = d.coords[0]
    assert all(c == a for c in d.coords)
    assert res.frobenius(a) == res.neg(a)
    rep = verify_datum(d)
    assert rep.verdict
    assert len(rep.coroot_rows) == 8  # all coroots of B2, brute force
    assert len(rep.descent_rows) == 2


def test_case1_ramified_depth_and_signs():
    d = build_generic_element(T("B2"), None, 5, 5, 1, ramified=True)
    assert d.case == "Case1-ram"
    assert d.depth == Fraction(3, 2)
    assert all(c == d.ext.residue.one() for c in d.coords)
    assert verify_datum(d).verdict


def test_case1_dispatch_covers_expected_families():
    for name in ("A1", "B3", "C3", "D4", "D6", "E7", "F4", "G2"):
        t = T(name)
        import sympy

        p = sympy.nextprime(
            {"A": t.rank + 1, "B": 2 * t.rank, "C": 2 * t.rank, "D": 2 * t.rank - 2,
             "E": 18, "F": 12, "G": 6}[t.family]
        )
        d = build_generic_element(t, None, p, p, 1)
        assert d.case == "Case1-unram", name


def test_nonsplit_involution_routes_to_case1():
    for name in ("A3", "D5", "E6"):
        rs = build_root_system(T(name))
        delta = standard_involution(rs)
        p = {"A3": 5, "D5": 11, "E6": 13}[name]
        d = build_generic_element(T(name), delta, p, p, 1)
        assert d.case == "Case1-unram"
        assert verify_datum(d).verdict


def test_d4_triality_goes_split_route_with_note():
    tri = DiagramAutomorphism((3, 2, 4, 1))
    d = build_generic_element(T("D4"), tri, 7, 7, 1)
    rep = verify_galois_descent(d)
    assert rep.descent_ok
    assert any("split route" in note for note in rep.notes)
    assert len(rep.descent_rows) == 8  # sigma and tau equations


def test_p_not_above_coxeter_rejected():
    with pytest.raises(ValueError):
        build_generic_element(T("B2"), None, 3, 3, 1)


# ---------------------------------------------------------------------------
# type A
# ---------------------------------------------------------------------------


def test_a2_datum_coordinates_are_frobenius_orbit():
    d = build_generic_element(T("A2"), None, 5, 5, 1)
    assert d.case == "A"
    res = d.ext.residue
    a = d.coords[0]
    assert d.coords[1] == res.frobenius(a)
    assert res.is_zero(res.trace(a))
    assert verify_datum(d).verdict


def test_a_type_descent_negative_control_fails_at_last_index():
    d = build_generic_element(T("A2"), None, 5, 5, 1)
    res = d.ext.residue
    # replace the orbit seed by a generator with nonzero trace
    bad = next(
        a
        for a in field_elements(res)
        if not res.is_zero(res.trace(a)) and res.minimal_polynomial_degree(a) == 3
    )
    coords = [res.frobenius(bad, i) for i in range(2)]
    rep = verify_galois_descent(replace(d, coords=tuple(coords)))
    assert not rep.descent_ok
    failing = [r.index for r in rep.descent_rows if not r.ok]
    assert failing == [2]  # the wrap-around equation detects the trace


def test_a_type_genericity_is_partial_orbit_sums():
    d = build_generic_element(T("A3"), None, 5, 5, 1)
    rep = verify_genericity(d)
    assert rep.genericity_ok
    assert len(rep.coroot_rows) == 12


# ---------------------------------------------------------------------------
# D odd
# ---------------------------------------------------------------------------


def test_dodd_identities_and_sigma_system():
    for s, q in ((5, 11), (5, 13), (5, 17), (7, 13), (7, 17)):
        spec, coords = build_dodd_coordinates(s, q, 1)
        res = spec.residue
        b = res.generator_power((q ** (2 * (s - 1)) - 1) // (2 * (q - 1)))
        assert res.sub(coords[s - 2], coords[s - 1]) == b
        total = res.zero()
        for c in coords:
            total = res.add(total, c)
        # sigma system, all four displayed relations
        for i in range(s - 3):
            assert res.frobenius(coords[i]) == coords[i + 1]
        assert res.frobenius(coords[s - 3]) == total
        head = res.zero()
        for c in coords[: s - 1]:
            head = res.add(head, c)
        assert res.frobenius(coords[s - 2]) == res.neg(head)
        head2 = res.zero()
        for c in coords[: s - 2]:
            head2 = res.add(head2, c)
        head2 = res.add(head2, coords[s - 1])
        assert res.frobenius(coords[s - 1]) == res.neg(head2)


def test_dodd_datum_full_brute_force():
    d = build_generic_element(T("D5"), None, 11, 11, 1)
    assert d.case == "Dodd"
    rep = verify_datum(d)
    assert rep.verdict
    assert len(rep.coroot_rows) == 40  # 2s(s-1) coroots


def test_dodd_seven_all_case_families():
    d = build_generic_element(T("D7"), None, 17, 17, 1)
    rep = verify_datum(d)
    assert rep.verdict
    assert len(rep.coroot_rows) == 84


def test_dodd_precondition():
    with pytest.raises(ValueError):
        build_dodd_coordinates(5, 7, 1)  # p <= 2s-2
    with pytest.raises(ValueError):
        build_dodd_coordinates(4, 11, 1)


# ---------------------------------------------------------------------------
# E6
# ---------------------------------------------------------------------------


def test_e6_unramified_sigma_system_q17():
    spec, coords = build_e6_coordinates("unramified_cubic", 17, 1)
    res = spec.residue
    a = res.find_trace_zero_generator()
    sa = res.frobenius(a)
    assert coords[0] == coords[1] == coords[3] == sa
    assert coords[2] == res.sub(a, res.smul(2, sa))
    assert coords[4] == res.add(a, sa)
    assert coords[5] == res.sub(res.smul(-3, a), res.smul(2, sa))
    d = build_generic_element(T("E6"), None, 17, 17, 1)
    assert d.case == "E6-unram"
    assert verify_datum(d).verdict


# the ramified-cubic coordinates as integer pairs (c1, c2) = c1 + c2*zeta
E6_RAM_SYMBOLIC = ((2, 0), (1, 0), (-4, -2), (1, 0), (1, 0), (0, 3))


def test_e6_ramified_datum_p13():
    d = build_generic_element(T("E6"), None, 13, 13, 1, ramified=True)
    assert d.case == "E6-ram"
    assert d.depth == Fraction(4, 3)
    rep = verify_datum(d)
    assert rep.verdict
    res = d.ext.residue
    zeta = d.ext.unif_ratio
    # literal coordinate values c1 + c2*zeta
    for coord, (c1, c2) in zip(d.coords, E6_RAM_SYMBOLIC):
        want = res.add(res.smul(c1, res.one()), res.smul(c2, zeta))
        assert coord == want
    # descent literally checks zeta * a_i = sum of the action row
    for row in rep.descent_rows:
        coord = d.coords[row.index - 1]
        assert row.lhs == res.element_to_json(res.mul(zeta, coord))


E6_RAM_VALUE_SET = (
    {(1, 0), (2, 0), (3, 0), (-2, -4)}
    | {(i, -2) for i in range(-4, 3)}
    | {(i, -1) for i in range(-2, 2)}
    | {(i, 1) for i in range(-2, 4)}
    | {(i, 3) for i in range(0, 4)}
)


def test_e6_ramified_positive_values_and_cube_criterion():
    rs = build_root_system(T("E6"))
    symbolic = E6_RAM_SYMBOLIC
    values = []
    for coroot in rs.positive_coroots:
        c1 = sum(lam * a for lam, (a, _) in zip(coroot.expansion, symbolic))
        c2 = sum(lam * b for lam, (_, b) in zip(coroot.expansion, symbolic))
        values.append((c1, c2))
    assert set(values) <= E6_RAM_VALUE_SET
    assert len(values) == 36
    p = 13
    for c1, c2 in values:
        if c2 % p == 0 or c1 % p == 0:
            assert (c1 % p, c2 % p) != (0, 0)
        elif (c1 + c2) % p == 0:
            pass  # c * (1 - zeta) with c a unit; 1 - zeta is a unit
        else:
            assert (c1**3 + c2**3) % p != 0
    # and the direct residue evaluation agrees for both primitive cube roots
    for zf in (3, 9):
        assert pow(zf, 3, p) == 1
        for c1, c2 in values:
            assert (c1 + c2 * zf) % p != 0


def test_e6_builder_drives_lattice_claims():
    from forge.rootsys import is_elliptic
    from oracles import weyl_order

    for q, ram in ((13, True), (17, False)):
        d = build_generic_element(T("E6"), None, q, q, 1, ramified=ram)
        assert weyl_order(d.cocycle) == 3
        assert is_elliptic(d.cocycle)


def test_e6_variant_preconditions():
    with pytest.raises(ValueError):
        build_e6_coordinates("unramified_cubic", 13, 1)  # 13 = 1 mod 3
    with pytest.raises(ValueError):
        build_e6_coordinates("ramified_cubic", 17, 1)  # 17 != 1 mod 3
    with pytest.raises(ValueError):
        build_generic_element(T("E6"), None, 17, 17, 1, ramified=True)
    # q = 1 mod 3 silently selects the ramified variant
    d = build_generic_element(T("E6"), None, 13, 13, 1)
    assert d.case == "E6-ram"


# ---------------------------------------------------------------------------
# negative controls and reports
# ---------------------------------------------------------------------------


def test_zero_coordinate_fails_genericity():
    d = build_generic_element(T("B2"), None, 5, 5, 1)
    res = d.ext.residue
    coords = list(d.coords)
    coords[0] = res.zero()
    rep = verify_genericity(replace(d, coords=tuple(coords)))
    assert not rep.genericity_ok
    assert rep.failing_coroots()


def test_all_zero_coordinates_fail_everywhere():
    d = build_generic_element(T("A2"), None, 5, 5, 1)
    coords = [d.ext.residue.zero()] * 2
    rep = verify_genericity(replace(d, coords=tuple(coords)))
    assert all(not r.ok for r in rep.coroot_rows)


def test_report_json_shape():
    d = build_generic_element(T("B2"), None, 5, 5, 1)
    rep = verify_datum(d)
    data = rep.to_json_dict()
    assert data["verdict"] == "pass"
    assert len(data["genericity"]) == 8
    assert all(set(r) == {"expansion", "residue", "ok"} for r in data["genericity"])


def test_datum_json_round_trip_bit_exact():
    for name, p, ram in (("B2", 5, False), ("E6", 13, True), ("D5", 11, False)):
        d = build_generic_element(T(name), None, p, p, 1, ramified=ram)
        text = d.to_json()
        again = datum_from_json(text)
        assert again.to_json() == text
        assert verify_datum(again).verdict


# the builder datums whose extension and case fields are edited below:
# (type, p, q, ramified) for A2, B3 ramified, E6 unramified and ramified,
# D5 and C3 over F_49
EDITED_DATUMS = [
    ("A2", 5, 5, False),
    ("B3", 7, 7, True),
    ("E6", 19, 19, False),
    ("E6", 13, 13, True),
    ("D5", 11, 11, False),
    ("C3", 7, 49, False),
]


def _single_field_edits(data):
    """(label, JSON text) for one-field edits of `case` and of `ext`: every
    other case label and kind, degrees, ramification indices, each scalar
    and x as the uniformizer ratio, and the residue field's p, f, n and
    constant modulus coefficient."""
    res = data["ext"]["residue"]
    n = res["n"]
    edits = [(("case",), c) for c in CASE_KINDS]
    edits += [(("ext", "kind"), k) for k in ("unramified", "ramified_quadratic", "ramified_cubic", "tame")]
    edits += [(("ext", "degree"), d) for d in (1, 2, 3, 4, 6, 8, 99)]
    edits += [(("ext", "ram_index"), e) for e in (1, 2, 3, 99)]
    scalars = [[c] + [0] * (n - 1) for c in range(res["p"])]
    edits += [(("ext", "unif_ratio"), u) for u in scalars + ([[0, 1] + [0] * (n - 2)] if n > 1 else [])]
    edits += [(("ext", "residue", "p"), res["p"] + 2), (("ext", "residue", "f"), res["f"] + 1)]
    edits += [(("ext", "residue", "n"), m) for m in (n - 1, n + 1) if m >= 1]
    edits += [(("ext", "residue", "modulus", 0), (res["modulus"][0] + 1) % res["p"])]
    out = []
    for path, value in edits:
        edited = copy.deepcopy(data)
        node = edited
        for key in path[:-1]:
            node = node[key]
        if node[path[-1]] != value:
            node[path[-1]] = value
            out.append((f"{'.'.join(map(str, path))}={value}", json.dumps(edited, sort_keys=True)))
    return out


@pytest.mark.parametrize(
    "name, p, q, ram",
    EDITED_DATUMS,
    ids=[f"{t}-q{q}-{'ram' if r else 'unram'}" for t, _, q, r in EDITED_DATUMS],
)
def test_no_single_field_edit_of_ext_or_case_verifies(name, p, q, ram):
    """ext is derived from kind and the residue field's (p, f, n), and case
    from the lattice and kind, so every edit is rejected as input."""
    d = build_generic_element(T(name), None, p, q, 1, ramified=ram)
    data = d.to_json_dict()
    assert verify_datum(datum_from_json(json.dumps(data))).verdict
    edits = _single_field_edits(data)
    assert len(edits) > 20
    accepted = []
    for label, text in edits:
        try:
            datum_from_json(text)
            accepted.append(label)
        except ValueError:
            pass
    assert accepted == []


def test_unknown_extension_kind_is_named():
    d = build_generic_element(T("A2"), None, 5, 5, 1)
    data = d.to_json_dict()
    data["ext"]["kind"] = "tame"
    with pytest.raises(ValueError, match="unknown extension kind 'tame'"):
        datum_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "name, p, delta, ok",
    [
        ("D4", 7, [4, 2, 3, 1], True),
        ("D4", 7, [1, 1, 1, 1], False),
        ("D4", 7, [2, 1, 3, 4], False),
        ("A2", 5, [1, 1], False),
    ],
    ids=["D4-swap-1-4", "D4-not-a-permutation", "D4-moves-the-centre", "A2-not-a-permutation"],
)
def test_datum_delta_must_be_a_diagram_automorphism(name, p, delta, ok):
    data = build_generic_element(T(name), None, p, p, 1).to_json_dict()
    data["delta"] = delta
    if ok:
        assert verify_datum(datum_from_json(json.dumps(data))).verdict
    else:
        with pytest.raises(ValueError, match="permutation"):
            datum_from_json(json.dumps(data))


def test_lattice_case_is_the_builder_dispatch():
    for t in all_irreducible_types(8):
        rs = build_root_system(t)
        delta = DiagramAutomorphism(tuple(range(1, t.rank + 1)))
        p = SweepConfig((t,)).grid()[0][0][1]
        for ram in (False, True):
            try:
                d = build_generic_element(t, delta, p, p, 1, ramified=ram)
            except ValueError:
                continue  # E6 ramified at p = 2 mod 3
            # not always `ram`: at q = 1 mod 3 the E6 builder is ramified
            assert d.case == lattice_case(rs, delta, d.ext.kind != "unramified"), (t, ram)
            assert d.ext.kind == CASE_KINDS[d.case]
            if d.case in ("A", "Dodd"):
                assert lattice_case(rs, delta, True) == d.case


@pytest.mark.parametrize(
    "name, p, q, ram",
    EDITED_DATUMS + [("B3", 7, 7, False)],
    ids=[f"{t}-q{q}-{'ram' if r else 'unram'}" for t, _, q, r in EDITED_DATUMS + [("B3", 7, 7, False)]],
)
def test_no_cocycle_edit_verifies(name, p, q, ram):
    """The cocycle is the case's lattice action, derived and compared: an
    edit is rejected as input even where descent sees the matrix only mod
    p, or (Case1) not at all."""
    data = build_generic_element(T(name), None, p, q, 1, ramified=ram).to_json_dict()
    d = datum_from_json(json.dumps(data))
    assert d.cocycle == lattice_cocycle(d.rs, d.delta, d.case)
    rank = len(data["cocycle"])
    edits = [[[0]]]
    for i in range(rank):
        for j in range(rank):
            edit = copy.deepcopy(data["cocycle"])
            edit[i][j] += p
            edits.append(edit)
    for cocycle in edits:
        with pytest.raises(ValueError, match="cocycle is not the lattice action"):
            datum_from_json(json.dumps({**data, "cocycle": cocycle}))


def test_lattice_cocycle_refuses_an_action_that_is_not_elliptic(monkeypatch):
    # every real case is elliptic; a stand-in identity action is not
    rs = build_root_system(T("A2"))
    monkeypatch.setattr("forge.toraldata.weyl_from_word", lambda rs, word: WeylElement(linalg.identity(rs.rank)))
    with pytest.raises(ValueError, match="not elliptic"):
        lattice_cocycle.__wrapped__(rs, trivial_automorphism(rs), "A")


@pytest.mark.parametrize(
    "field, value, match",
    [("n", 10**30, "ext.residue.n must be 3"), ("n", 2, "ext.residue.n must be 3"),
     ("f", 7, "p\\^f = q"), ("p", 7, "p\\^f = q")],
)
def test_residue_field_is_checked_before_it_is_built(monkeypatch, field, value, match):
    data = build_generic_element(T("A2"), None, 5, 5, 1).to_json_dict()
    data["ext"]["residue"][field] = value

    def refuse(*args):
        raise AssertionError(f"build_extension{args} called on unchecked input")

    monkeypatch.setattr("forge.toraldata.build_extension", refuse)
    with pytest.raises(ValueError, match=match):
        datum_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "p, q, match",
    [(5, 10**3000, "q must be a power of p"), (5, 10, "q must be a power of p"),
     (5, 7**4, "q must be a power of p"), (5, 1, "q must be a power of p"),
     (5, -25, "q must be a power of p"), (9, 81, "p must be a prime"),
     (3317044064679887385962123, 3317044064679887385962123, "3317044064679887385961981")],
    ids=["10^3000", "10", "7^4", "1", "-25", "p9", "p-above-mr-bound"],
)
def test_q_is_checked_against_the_known_p(monkeypatch, p, q, match):
    def refuse(*args):
        raise AssertionError(f"prime_power{args} called although p is known")

    monkeypatch.setattr("forge.toraldata.kernel.prime_power", refuse)
    with pytest.raises(ValueError, match=match):
        build_generic_element(T("A2"), None, p, q, 1)
    assert build_generic_element(T("A2"), None, 5, 25, 1).q == 25
    # the Dodd and E6 builders take p and f from the checked q as well
    assert build_generic_element(T("D5"), None, 11, 11, 1).case == "Dodd"
    assert build_generic_element(T("E6"), None, 13, 13, 1).case == "E6-ram"
    assert build_generic_element(T("E6"), None, 17, 17, 1).case == "E6-unram"
    assert build_generic_element(T("E6"), None, 17, 17**2, 1).case == "E6-ram"


def test_residue_degree_of_every_builder_datum():
    for t in all_irreducible_types(8):
        p = SweepConfig((t,)).grid()[0][0][1]
        for q, ram in ((p, False), (p, True), (p * p, False)):
            try:
                d = build_generic_element(t, None, p, q, 1, ramified=ram)
            except ValueError:
                continue  # no ramified variant, or E6 ramified at q = 2 mod 3
            assert d.ext.residue.n == residue_degree(d.case, t.rank), (t, q, ram)


# ---------------------------------------------------------------------------
# depth rescaling / assembly / twisting
# ---------------------------------------------------------------------------

# The 1-toral chain: factor data grouped by depth in one unit window.  No
# forge command builds or reads a chain, so it lives here with its tests.


def restriction_depth(
    e: int,
    r_prime: Fraction,
    valuation_table: Optional[Sequence[Fraction]] = None,
) -> tuple[Fraction, Optional[list[Fraction]]]:
    """Rescale a depth (and optionally a per-coroot valuation table) by 1/e."""
    if e < 1:
        raise ValueError("ramification index must be at least 1")
    r_prime = Fraction(r_prime)
    if r_prime <= 0:
        raise ValueError("depth must be positive")
    rescaled = None
    if valuation_table is not None:
        if any(Fraction(v) != -r_prime for v in valuation_table):
            raise ValueError("nonuniform valuation table: genericity violated upstream")
        rescaled = [Fraction(v) / e for v in valuation_table]
        assert all(v == -r_prime / e for v in rescaled)
    return r_prime / e, rescaled


@dataclass(frozen=True)
class OneToralFactor:
    label: str
    depth: Fraction
    datum: Optional[ZeroToralDatum] = None


@dataclass(frozen=True)
class OneToralDatum:
    """Chain of factor groups with strictly increasing depths in one window."""

    groups: tuple[tuple[Fraction, tuple[OneToralFactor, ...]], ...]
    n: int

    @property
    def depths(self) -> tuple[Fraction, ...]:
        return tuple(depth for depth, _ in self.groups)

    @property
    def d(self) -> int:
        return len(self.groups)

    def __post_init__(self):
        ds = self.depths
        if not ds:
            raise ValueError("empty chain")
        if any(a >= b for a, b in zip(ds, ds[1:])):
            raise ValueError("depths must be strictly increasing across groups")
        if ds[-1] >= ds[0] + 1:
            raise ValueError("depth window exceeds one unit")


def assemble_one_toral(factors: Sequence[OneToralFactor]) -> OneToralDatum:
    """Group factors by depth into the increasing chain, one window check."""
    if not factors:
        raise ValueError("no factors")
    windows = set()
    for fac in factors:
        r = Fraction(fac.depth)
        if r <= 0:
            raise ValueError("depths must be positive")
        windows.add(r.__ceil__() - 1)
    if len(windows) != 1:
        raise ValueError("depths not all within a common unit half-open window")
    by_depth: dict[Fraction, list[OneToralFactor]] = {}
    for fac in factors:
        by_depth.setdefault(Fraction(fac.depth), []).append(fac)
    groups = tuple((depth, tuple(by_depth[depth])) for depth in sorted(by_depth))
    return OneToralDatum(groups, windows.pop())


def twist_one_toral(d: OneToralDatum, i: int, m: int, e_F: int = 1) -> OneToralDatum:
    """`twist_datum` on every factor; the window inequality couples the
    chain extremes, r0 - v(i) > r_d / 2, not the factors."""
    first = d.groups[0][1][0].datum
    if first is None:
        raise ValueError("cannot twist a factor without coordinates")
    p0 = first.p
    if not 0 < i < p0**m:
        raise ValueError("i must satisfy 0 < i < p^m")
    v0 = Fraction(kernel.vp(i, p0) * e_F)
    if not d.depths[0] - v0 > d.depths[-1] / 2:
        raise ValueError("window inequality violated: r0 - v(i) <= r_d / 2")
    twisted = []
    for _, facs in d.groups:
        for fac in facs:
            if fac.datum is None:
                raise ValueError("cannot twist a factor without coordinates")
            td = twist_datum(fac.datum, i, m, e_F)
            twisted.append(OneToralFactor(fac.label, td.depth, td))
    return assemble_one_toral(twisted)



def test_restriction_depth_identity_and_windows():
    assert restriction_depth(1, Fraction(3))[0] == 3
    r, table = restriction_depth(2, Fraction(3), [Fraction(-3)] * 4)
    assert r == Fraction(3, 2)
    assert table == [Fraction(-3, 2)] * 4
    assert 1 < r <= 2  # window for n = 1
    r3, _ = restriction_depth(3, Fraction(4))
    assert r3 == Fraction(4, 3) and 1 < r3 <= 2
    with pytest.raises(ValueError):
        restriction_depth(2, Fraction(3), [Fraction(-3), Fraction(-2)])


def test_assemble_one_toral_grouping():
    single = assemble_one_toral([OneToralFactor("g", Fraction(3, 2))])
    assert single.d == 1
    equal = assemble_one_toral(
        [OneToralFactor("g1", Fraction(3, 2)), OneToralFactor("g2", Fraction(3, 2))]
    )
    assert equal.d == 1
    assert len(equal.groups[0][1]) == 2
    chain = assemble_one_toral(
        [
            OneToralFactor("g1", Fraction(6, 5)),
            OneToralFactor("g2", Fraction(3, 2)),
            OneToralFactor("g3", Fraction(19, 10)),
        ]
    )
    assert chain.d == 3
    assert chain.depths == (Fraction(6, 5), Fraction(3, 2), Fraction(19, 10))
    assert chain.depths[-1] < chain.depths[0] + 1


def test_assemble_one_toral_window_violation():
    with pytest.raises(ValueError):
        assemble_one_toral(
            [OneToralFactor("g1", Fraction(3, 2)), OneToralFactor("g2", Fraction(5, 2))]
        )


def test_twist_by_unit_keeps_depth_and_genericity():
    d = build_generic_element(T("B2"), None, 5, 5, 1)
    td = twist_datum(d, 3, 1)
    assert td.depth == d.depth
    assert verify_genericity(td).genericity_ok
    res = d.ext.residue
    assert td.coords[0] == res.smul(3, d.coords[0])


def test_twist_by_p_drops_depth():
    d = build_generic_element(T("B2"), None, 5, 5, 3)  # depth 4, window n=3
    td = twist_datum(d, 5, 2)
    assert td.depth == d.depth - 1
    assert td.n == 2
    assert verify_genericity(td).genericity_ok
    # inequality (n+1)/2 < r0 - v(i) holds: 2 < 3
    assert td.depth > d.depth / 2


def test_twist_window_violation_and_precondition():
    d = build_generic_element(T("B2"), None, 5, 5, 1)  # depth 2
    with pytest.raises(ValueError):
        twist_datum(d, 5, 2)  # v = 1: r - 1 = 1 = r/2, not >
    with pytest.raises(ValueError):
        twist_datum(d, 25, 2)  # i = p^m
    with pytest.raises(ValueError):
        twist_datum(d, 0, 1)


def test_assemble_mixed_case_factors_end_to_end():
    # three factor data in the same unit window at genuinely different
    # depths: n + 1/3 (ramified cubic) < n + 1/2 (ramified quadratic) < n + 1
    e6 = build_generic_element(T("E6"), None, 13, 13, 1, ramified=True)
    b2 = build_generic_element(T("B2"), None, 13, 13, 1, ramified=True)
    a2 = build_generic_element(T("A2"), None, 13, 13, 1)
    one = assemble_one_toral(
        [
            OneToralFactor("f-e6", e6.depth, e6),
            OneToralFactor("f-b2", b2.depth, b2),
            OneToralFactor("f-a2", a2.depth, a2),
        ]
    )
    assert one.d == 3
    assert one.depths == (Fraction(4, 3), Fraction(3, 2), Fraction(2))
    assert one.depths[-1] < one.depths[0] + 1
    # equal-depth factors merge into one chain group
    b2b = build_generic_element(T("B3"), None, 13, 13, 1, ramified=True)
    merged = assemble_one_toral(
        [
            OneToralFactor("f1", b2.depth, b2),
            OneToralFactor("f2", b2b.depth, b2b),
        ]
    )
    assert merged.d == 1 and len(merged.groups[0][1]) == 2


def chain_genericity_ok(one):
    return all(
        verify_genericity(fac.datum).genericity_ok for _, facs in one.groups for fac in facs
    )


def test_twist_one_toral():
    d1 = build_generic_element(T("B2"), None, 11, 11, 3)
    d2 = build_generic_element(T("A2"), None, 11, 11, 3)
    one = assemble_one_toral(
        [
            OneToralFactor("f1", d1.depth, d1),
            OneToralFactor("f2", d2.depth, d2),
        ]
    )
    twisted = twist_one_toral(one, 11, 2)
    assert chain_genericity_ok(twisted)
    assert all(depth == Fraction(3) for depth in twisted.depths)


def test_twist_one_toral_chain_inequality_uses_extremes():
    # depths 9/2 < 5 in the window above 4: twisting by p^2 leaves each
    # factor above half its own depth (5/2 > 9/4 and 3 > 5/2) but exactly
    # hits the chain bound r0 - v = 5/2 = r_d/2, so the chain must refuse
    b2 = build_generic_element(T("B2"), None, 13, 13, 4, ramified=True)
    a2 = build_generic_element(T("A2"), None, 13, 13, 4)
    for factor in (b2, a2):
        assert verify_genericity(twist_datum(factor, 13**2, 3)).genericity_ok
    one = assemble_one_toral(
        [
            OneToralFactor("f1", b2.depth, b2),
            OneToralFactor("f2", a2.depth, a2),
        ]
    )
    with pytest.raises(ValueError):
        twist_one_toral(one, 13**2, 3)
    twisted = twist_one_toral(one, 13, 3)  # v = 1 stays inside the bound
    assert chain_genericity_ok(twisted)
    assert twisted.depths == (Fraction(7, 2), Fraction(4))


# ---------------------------------------------------------------------------
# sweep invariants (module-level grid)
# ---------------------------------------------------------------------------


def leading_term_fold(res, expansion, terms):
    """Reference: the leading-term fold that `verify_genericity` ran before
    coordinates became unit residues.  A term is (valuation, residue) with
    residue None for Unknown, a strict lower bound whose leading coefficient
    is not certified; equal-valuation residues that cancel turn Unknown.
    Returns the folded term of one coroot row."""

    def add(x, y):
        if x[1] is None or y[1] is None:
            known = [z for z in (x, y) if z[1] is not None]
            unknown = x if x[1] is None else y
            if known and known[0][0] <= unknown[0]:
                return known[0]
            return (min(x[0], y[0]), None)
        if x[0] != y[0]:
            return min(x, y, key=lambda z: z[0])
        s = res.add(x[1], y[1])
        return (x[0], None if res.is_zero(s) else s)

    term = None
    for lam, (v, a) in zip(expansion, terms):
        if lam:
            scaled = (v, None if lam % res.p == 0 or a is None else res.smul(lam, a))
            term = scaled if term is None else add(term, scaled)
    return term


def assert_rows_match_leading_term_fold(d, terms, rows):
    """The residue-sum rows equal the fold's wherever its residue is known;
    where it is Unknown the row is the zero element and fails."""
    res = d.ext.residue
    assert [r.expansion for r in rows] == [c.expansion for c in d.rs.coroots]
    for row in rows:
        _, old = leading_term_fold(res, row.expansion, terms)
        if old is None:
            assert row.residue == res.element_to_json(res.zero()) and not row.ok
        else:
            assert (row.residue, row.ok) == (res.element_to_json(old), not res.is_zero(old))


# sha256 over the JSON of every datum and twist hashed below: it pins the
# residue moduli, generator-power and trace-zero coordinates byte for byte
SWEEP_GOLDEN_SHA256 = "f796d85c66865e26e40f7d2dace98bae9d47cb896a4b39cff4700ce7b2762f69"


def test_full_sweep_q_p_and_p_squared():
    """Every point of the `forge sweep --q-exponents 1 2` grid verifies, and
    every twist the sweep makes recomputes to u times the untwisted coroot
    rows with the same ok flags: the identity `twist_datum` relies on."""
    import hashlib

    config = SweepConfig(types=tuple(all_irreducible_types(8)), q_exponents=(1, 2))
    digest = hashlib.sha256()
    twists = 0
    for t, p, q, n in config.grid()[0]:
        d = build_generic_element(t, None, p, q, n)
        rep = verify_datum(d)
        assert rep.verdict, (str(t), p, q, n)
        assert_rows_match_leading_term_fold(d, [(0, a) for a in d.coords], rep.coroot_rows)
        res = d.ext.residue
        m = n // 2 + 1  # the sweep's twists: i = p^texp * u below p^m
        for texp in range(m):
            for u in (1, p - 1):
                if p**texp * u >= p**m:
                    continue
                trep = verify_genericity(twist_datum(d, p**texp * u, m))
                want = [
                    (
                        r.expansion,
                        res.element_to_json(res.smul(u, res.element_from_json(r.residue))),
                        r.ok,
                    )
                    for r in rep.coroot_rows
                ]
                got = [(r.expansion, r.residue, r.ok) for r in trep.coroot_rows]
                assert got == want, (str(t), p, q, n, p**texp * u)
                twists += 1
        if q == p or n == 1:  # residue arithmetic is n-independent
            digest.update(d.to_json().encode())
            digest.update(twist_datum(d, p - 1, 1).to_json().encode())
    assert twists == 744
    assert digest.hexdigest() == SWEEP_GOLDEN_SHA256


# one datum per family, with both E6 extensions and the largest coroot set
FAMILY_DATUMS = (
    ("A2", 5, False), ("B3", 7, False), ("C3", 7, False), ("D5", 11, False), ("D6", 11, False),
    ("E6", 13, True), ("E6", 17, False), ("E8", 31, False), ("F4", 13, False), ("G2", 7, False),
)


@given(st.sampled_from(FAMILY_DATUMS), st.data())
def test_height_table_rows_are_the_direct_sums(family, data):
    """Each coordinate is drawn from {0, a, -a, 2a, a_i}, a the first one, so
    rows cancel and zero residues with `ok` false appear; the report bytes
    equal the direct sums' either way."""
    name, p, ramified = family
    d = build_generic_element(T(name), None, p, p, 1, ramified=ramified)
    res, a = d.ext.residue, d.coords[0]
    choices = (res.zero(), a, res.neg(a), res.smul(2, a))
    coords = tuple(data.draw(st.sampled_from(choices + (c,))) for c in d.coords)
    d = replace(d, coords=coords)
    assert verify_genericity(d).to_json() == genericity_by_sum(d).to_json()


def test_sweep_negative_controls_single_zero_coordinate():
    for name, p in (("B3", 7), ("A3", 5), ("D5", 11)):
        d = build_generic_element(T(name), None, p, p, 1)
        for k in range(d.rs.rank):
            coords = list(d.coords)
            coords[k] = d.ext.residue.zero()
            rep = verify_genericity(replace(d, coords=tuple(coords)))
            assert not rep.genericity_ok
            terms = [(0, a) for a in d.coords]
            terms[k] = (0, None)
            assert_rows_match_leading_term_fold(d, terms, rep.coroot_rows)
