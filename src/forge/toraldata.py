"""Generic-element data: construction, Galois descent, genericity.

A datum packages the arithmetic of a twisted-torus functional: a root
system, a lattice action for the distinguished Galois generator, a tame
extension of residue data, a depth in the window (n, n+1], and one leading
coefficient per simple coroot.  Verification is exhaustive: the descent
equations are checked on every simple coroot and genericity on every
coroot, in the residue field, exactly.

Each coordinate a_i is the residue in k_E of X(pi^{re} H_i), a unit at
valuation 0 (the JSON spells out `"valuation": "0"` and accepts nothing
else).  X(pi^{re} H_alpha) is then sum_i lambda_i a_i plus terms of
positive valuation, so X(H_alpha) has valuation exactly -r (Yu's GE1)
iff that residue sum is nonzero: genericity is one linear sum per coroot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import kernel, linalg
from .ffield import FieldExtension, build_extension
from .rootsys import (
    DiagramAutomorphism,
    RootSystem,
    RootSystemType,
    WeylElement,
    build_root_system,
    coxeter_number,
    is_elliptic,
    minus_one_in_W_delta,
    trivial_automorphism,
    weyl_from_word,
)

# each lattice case with the kind of extension its datum carries
CASE_KINDS = {
    "Case1-unram": "unramified",
    "Case1-ram": "ramified_quadratic",
    "A": "unramified",
    "Dodd": "unramified",
    "E6-unram": "unramified",
    "E6-ram": "ramified_cubic",
}


# ---------------------------------------------------------------------------
# extension specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionSpec:
    """Residue-level model of the tame extension E/F carrying the datum."""

    kind: str  # unramified | ramified_quadratic | ramified_cubic
    degree: int  # [E:F]
    ram_index: int  # e(E/F)
    residue: FieldExtension  # k_E as an extension of k_F
    unif_ratio: tuple  # residue of sigma(pi_E)/pi_E, a root of unity in k_E

    @staticmethod
    def unramified(p: int, f: int, degree: int) -> "ExtensionSpec":
        res = build_extension(p, f, degree)
        return ExtensionSpec("unramified", degree, 1, res, res.one())

    @staticmethod
    def ramified_quadratic(p: int, f: int) -> "ExtensionSpec":
        if p == 2:
            raise ValueError("ramified quadratic requires p != 2")
        res = build_extension(p, f, 1)
        return ExtensionSpec("ramified_quadratic", 2, 2, res, res.neg(res.one()))

    @staticmethod
    def ramified_cubic(p: int, f: int) -> "ExtensionSpec":
        res = build_extension(p, f, 1)
        q = res.q
        if q % 3 != 1:
            raise ValueError("ramified cubic requires a cube root of unity: q = 1 mod 3")
        zeta = res.generator_power((q - 1) // 3)
        return ExtensionSpec("ramified_cubic", 3, 3, res, zeta)

    def frobenius_power(self) -> int:
        """How the generator acts on the residue field: q-power iff unramified."""
        return 1 if self.kind == "unramified" else 0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "ram_index": self.ram_index,
            "residue": self.residue.to_json_dict(),
            "unif_ratio": self.residue.element_to_json(self.unif_ratio),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ExtensionSpec":
        """The spec that `kind` names over the residue field's (p, f, n): the
        other fields are derived, and a datum's re-serialization check
        rejects any input that states them differently."""
        p, f, n = data["residue"]["p"], data["residue"]["f"], data["residue"]["n"]
        kind = data["kind"]
        if kind == "unramified":
            return ExtensionSpec.unramified(p, f, n)
        if kind == "ramified_quadratic":
            return ExtensionSpec.ramified_quadratic(p, f)
        if kind == "ramified_cubic":
            return ExtensionSpec.ramified_cubic(p, f)
        raise ValueError(f"unknown extension kind {kind!r}")


@lru_cache(maxsize=None)
def lattice_case(rs: RootSystem, delta: DiagramAutomorphism, ramified: bool) -> str:
    """The construction case of the lattice (rs, delta): the quadratic-twist
    case when -1 lies in W*delta (and always on D-even lattices), else by
    family.  `ramified` picks the ramified variant of the quadratic-twist and
    E6 cases; A and odd D have none and ignore it.  ValueError unless delta
    is a diagram automorphism of rs.  Cached: every datum and twist checks
    its case, and a type has a handful of valid deltas."""
    delta.validate(rs)
    t = rs.type
    if (t.family == "D" and t.rank % 2 == 0) or minus_one_in_W_delta(rs, delta):
        return "Case1-ram" if ramified else "Case1-unram"
    if t.family == "A":
        return "A"
    if t.family == "D":
        return "Dodd"
    if t.family == "E" and t.rank == 6:
        return "E6-ram" if ramified else "E6-unram"
    raise ValueError(f"no construction dispatchable for {t} with this form")


def residue_degree(case: str, rank: int) -> int:
    """[k_E : k_F], the degree of the residue field a datum of this case and
    rank carries: 1 for the ramified cases."""
    if case not in CASE_KINDS:
        raise ValueError(f"unknown case label {case}")
    return {"Case1-unram": 2, "A": rank + 1, "Dodd": 2 * rank - 2, "E6-unram": 3}.get(case, 1)


@lru_cache(maxsize=None)
def lattice_cocycle(rs: RootSystem, delta: DiagramAutomorphism, case: str) -> WeylElement:
    """The lattice action of the distinguished generator in `case`: -1 on a
    D-even lattice and -delta on the other quadratic-twist lattices, the
    Coxeter element s_1 ... s_r for A and odd D, and (s2 s3 s5 s1 s4 s6)^4
    for E6.  The builder takes it and every datum check compares with it.

    Descent acts by -1 in Case1 and by the cocycle otherwise; ValueError
    unless that action fixes no nonzero vector (the torus is elliptic).
    -1 fixes none, so only the other cases take the determinant, once per
    lattice and case rather than once per datum and twist."""
    t = rs.type
    if case.startswith("Case1"):
        m = linalg.identity(rs.rank) if t.family == "D" and t.rank % 2 == 0 else delta.matrix()
        return WeylElement(linalg.mat_scale(-1, m))
    if case in ("A", "Dodd"):
        w = weyl_from_word(rs, range(1, rs.rank + 1))
    else:
        w = weyl_from_word(rs, [2, 3, 5, 1, 4, 6]).power(4)
    if not is_elliptic(w):
        raise ValueError("twisted action has a nonzero fixed vector: torus not elliptic")
    return w


@lru_cache(maxsize=None)
def minus_identity(rank: int) -> linalg.Matrix:
    return linalg.mat_scale(-1, linalg.identity(rank))


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroToralDatum:
    rs: RootSystem
    delta: DiagramAutomorphism
    cocycle: WeylElement  # lattice action of the distinguished generator
    ext: ExtensionSpec
    p: int
    q: int
    n: int  # depth window index: depth in (n, n+1]
    depth: Fraction
    coords: tuple[tuple, ...]  # residues of X(pi^{r e} H_i), in k_E
    case: str

    def __post_init__(self):
        if self.p <= coxeter_number(self.rs.type):
            raise ValueError("requires p > Cox")
        if (self.p, self.q) != (self.ext.residue.p, self.ext.residue.q):
            raise ValueError("p and q must be those of the residue field")
        if len(self.coords) != self.rs.rank:
            raise ValueError(f"expected {self.rs.rank} coords, got {len(self.coords)}")
        if self.case not in CASE_KINDS:
            raise ValueError(f"unknown case label {self.case}")
        kind = self.ext.kind
        if CASE_KINDS[self.case] != kind or self.case != lattice_case(
            self.rs, self.delta, kind != "unramified"
        ):
            raise ValueError(
                f"case {self.case} does not fit {self.rs.type} with this delta "
                f"and a {kind} extension"
            )
        if self.cocycle != lattice_cocycle(self.rs, self.delta, self.case):
            raise ValueError(f"cocycle is not the lattice action of case {self.case}")
        a, b = self.depth.numerator, self.depth.denominator
        if not self.n * b < a <= (self.n + 1) * b:
            raise ValueError("depth outside the admissible window")
        if self.ext.ram_index % b:
            raise ValueError("depth times e(E/F) must be an integer")

    def _sigma_action(self) -> linalg.Matrix:
        """Lattice action of the distinguished generator used for descent."""
        if self.case.startswith("Case1"):
            return minus_identity(self.rs.rank)
        return self.cocycle.matrix

    def descent_equations(self) -> list[tuple[str, linalg.Matrix, tuple, int]]:
        """(label, lattice matrix, unit factor on the twisted side, frobenius power)."""
        ext = self.ext
        re_power = self.depth.numerator * ext.ram_index // self.depth.denominator
        one = ext.residue.one()  # 1^re_power = 1 on the unramified route
        c_eff = one if ext.unif_ratio == one else ext.residue.pow(ext.unif_ratio, re_power)
        eqs = [("sigma", self._sigma_action(), c_eff, ext.frobenius_power())]
        if (
            self.case.startswith("Case1")
            and self.rs.type.family == "D"
            and self.rs.rank % 2 == 0
            and not self.delta.is_trivial
        ):
            # component of the Galois action through the splitting field of
            # the form, acting by the diagram automorphism with trivial
            # coefficient action; certified only on the split route.
            eqs.append(("tau", self.delta.matrix(), ext.residue.one(), 0))
        return eqs

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "type": str(self.rs.type),
            "case": self.case,
            "p": self.p,
            "q": self.q,
            "n": self.n,
            "depth": str(self.depth),
            "delta": list(self.delta.permutation),
            "cocycle": [list(r) for r in self.cocycle.matrix],
            "ext": self.ext.to_json_dict(),
            "coords": [
                {"residue": self.ext.residue.element_to_json(c), "valuation": "0"}
                for c in self.coords
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def datum_from_json(text: str) -> ZeroToralDatum:
    """The datum a JSON text encodes; ValueError unless the text is a
    well-formed datum that re-serializes to the same JSON value."""
    data = json.loads(text)
    kernel.reject_float_and_bool(data)
    try:
        rs = build_root_system(RootSystemType.parse(data["type"]))
        # the residue field's size and degree, checked before it is built;
        # p^f has more than f * (bitlen(p) - 1) bits, so no huge f is raised to
        p, q, res = data["p"], data["q"], data["ext"]["residue"]
        f = res["f"]
        if res["p"] != p or f * (p.bit_length() - 1) >= q.bit_length() or p**f != q:
            raise ValueError("ext.residue must have the datum's p and p^f = q")
        degree = residue_degree(data["case"], rs.rank)
        if res["n"] != degree:
            raise ValueError(f"ext.residue.n must be {degree} for case {data['case']} of {rs.type}")
        ext = ExtensionSpec.from_json_dict(data["ext"])
        datum = ZeroToralDatum(
            rs=rs,
            delta=DiagramAutomorphism(tuple(data["delta"])),
            cocycle=WeylElement(linalg.mat_freeze(data["cocycle"])),
            ext=ext,
            p=p,
            q=q,
            n=data["n"],
            depth=Fraction(data["depth"]),
            coords=tuple(ext.residue.element_from_json(c["residue"]) for c in data["coords"]),
            case=data["case"],
        )
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed datum: {type(exc).__name__}: {exc}") from exc
    if datum.to_json_dict() != data:
        raise ValueError("non-canonical datum: it does not re-serialize to its input")
    return datum


class DescentRow(NamedTuple):
    equation: str
    index: int  # 1-based simple coroot index
    lhs: tuple  # elements of the report's residue field
    rhs: tuple
    ok: bool


class CorootRow(NamedTuple):
    expansion: tuple[int, ...]
    residue: tuple  # an element of the report's residue field
    ok: bool


@dataclass(frozen=True)
class GenericityReport:
    coroot_rows: tuple[CorootRow, ...]
    descent_rows: tuple[DescentRow, ...]
    notes: tuple[str, ...] = ()
    field: Optional[FieldExtension] = None  # every row's residue field; to_json_dict encodes

    @property
    def genericity_ok(self) -> bool:
        return all(r.ok for r in self.coroot_rows)

    @property
    def descent_ok(self) -> bool:
        return all(r.ok for r in self.descent_rows)

    @property
    def verdict(self) -> bool:
        return self.genericity_ok and self.descent_ok and bool(
            self.coroot_rows or self.descent_rows
        )

    def failing_coroots(self) -> list[CorootRow]:
        return [r for r in self.coroot_rows if not r.ok]

    def merge(self, other: "GenericityReport") -> "GenericityReport":
        return GenericityReport(
            self.coroot_rows + other.coroot_rows,
            self.descent_rows + other.descent_rows,
            self.notes + other.notes,
            self.field or other.field,
        )

    def to_json_dict(self) -> dict:
        enc = self.field.element_to_json if self.field else None
        return {
            "verdict": "pass" if self.verdict else "fail",
            "genericity": [
                {
                    "expansion": list(r.expansion),
                    "residue": enc(r.residue),
                    "ok": r.ok,
                }
                for r in self.coroot_rows
            ],
            "descent": [
                {
                    "equation": r.equation,
                    "index": r.index,
                    "lhs": enc(r.lhs),
                    "rhs": enc(r.rhs),
                    "ok": r.ok,
                }
                for r in self.descent_rows
            ],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_galois_descent(d: ZeroToralDatum) -> GenericityReport:
    """Check the generator equivariance equations on every simple coroot."""
    res_field = d.ext.residue
    rows = []
    notes = []
    for label, m, c_eff, frob_k in d.descent_equations():
        for i, col in enumerate(zip(*m)):
            lhs = res_field.frobenius(d.coords[i], frob_k)
            if c_eff != res_field.one():
                lhs = res_field.mul(c_eff, lhs)
            rhs = res_field.zero()
            for j, mu in enumerate(col):
                if mu:
                    rhs = res_field.add(rhs, res_field.smul(mu, d.coords[j]))
            rows.append(DescentRow(label, i + 1, lhs, rhs, lhs == rhs))
        if label == "tau":
            notes.append(
                "nontrivial form component on a D-even lattice: only the split "
                "route (independent quadratic twist) is certified"
            )
    return GenericityReport((), tuple(rows), tuple(notes), res_field)


def verify_genericity(d: ZeroToralDatum) -> GenericityReport:
    """Evaluate the functional on every coroot: the row is the residue sum
    sum_i lambda_i a_i, and genericity asks it to be nonzero.  Every
    coefficient lambda_i is below h < p, so no term vanishes mod p.

    The row is linear in the coroot's coordinates lambda, so the row of
    beta + alpha_j^vee is the row of beta plus a_j and the row of -beta is
    minus the row of beta: each positive row is one `add` onto its parent's
    in `by_height`, each negative row one `neg`."""
    res, rs = d.ext.residue, d.rs
    value = []
    for _, parent, j in rs.by_height:
        value.append(d.coords[j] if parent is None else res.add(value[parent], d.coords[j]))
    positive = [value[k] for k in rs.height_order]
    rows = [
        CorootRow(c.expansion, v, not res.is_zero(v))
        for c, v in zip(rs.coroots, [res.neg(v) for v in reversed(positive)] + positive)
    ]
    return GenericityReport(tuple(rows), (), (), res)


def verify_datum(d: ZeroToralDatum) -> GenericityReport:
    return verify_galois_descent(d).merge(verify_genericity(d))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_dodd_coordinates(s: int, p: int, f: int) -> tuple[ExtensionSpec, list[tuple]]:
    """Coordinate vector for the odd orthogonal family over q = p^f, via
    generator powers."""
    if s < 5 or s % 2 == 0:
        raise ValueError("s must be odd and at least 5")
    q = p**f
    if p <= 2 * s - 2:
        raise ValueError("requires p > 2s - 2")
    spec = ExtensionSpec.unramified(p, f, 2 * s - 2)
    res = spec.residue
    a = res.generator_power((q ** (s - 1) + 1) // 2)
    b = res.generator_power((q ** (2 * (s - 1)) - 1) // (2 * (q - 1)))
    sig = [a]
    for _ in range(s - 1):
        sig.append(res.frobenius(sig[-1]))
    partial = res.zero()
    for i in range(s - 2):
        partial = res.add(partial, sig[i])
    inv2 = pow(2, -1, p)
    tail = res.add(res.neg(partial), sig[s - 2])
    coords = [sig[i] for i in range(s - 2)]
    coords.append(res.smul(inv2, res.add(b, tail)))
    coords.append(res.smul(inv2, res.add(res.neg(b), tail)))
    return spec, coords


def build_e6_coordinates(variant: str, p: int, f: int) -> tuple[ExtensionSpec, list[tuple]]:
    """Coordinate vector for E6 over q = p^f in either cubic variant."""
    q = p**f
    if p <= 12:
        raise ValueError("requires p > 12")
    if variant == "unramified_cubic":
        if q % 3 == 1:
            raise ValueError(
                "unramified variant requires no cube root of unity: q != 1 mod 3"
            )
        spec = ExtensionSpec.unramified(p, f, 3)
        res = spec.residue
        a = res.find_trace_zero_generator()
        sa = res.frobenius(a)
        coords = [
            sa,
            sa,
            res.sub(a, res.smul(2, sa)),
            sa,
            res.add(a, sa),
            res.sub(res.smul(-3, a), res.smul(2, sa)),
        ]
        return spec, coords
    if variant == "ramified_cubic":
        spec = ExtensionSpec.ramified_cubic(p, f)
        res = spec.residue
        zeta = spec.unif_ratio
        one = res.one()
        coords = [
            res.smul(2, one),
            one,
            res.sub(res.smul(-4, one), res.smul(2, zeta)),
            one,
            one,
            res.smul(3, zeta),
        ]
        return spec, coords
    raise ValueError(f"unknown variant {variant!r}")


@lru_cache(maxsize=None)
def form_data(rs: RootSystem, delta: DiagramAutomorphism, p: int, q: int, ramified: bool) -> tuple:
    """(case, extension, coordinates, cocycle) of the form, the same for
    every depth window n.  Cached: the sweep builds each form at n = 1, 2.
    It holds inputs only; every datum built from them is verified."""
    if not kernel.is_prime(p):
        raise ValueError(f"p must be a prime, got p = {p}")
    f = kernel.vp(q, p) if q else 0
    if f < 1 or p**f != q:
        raise ValueError("q must be a power of p")
    cox = coxeter_number(rs.type)
    if p <= cox:
        raise ValueError(f"requires p > Cox = {cox}")
    case = lattice_case(rs, delta, ramified)
    if case == "E6-ram" and q % 3 != 1:
        raise ValueError("ramified cubic requested but q != 1 mod 3")
    if case == "E6-unram" and q % 3 == 1:
        case = "E6-ram"  # q = 1 mod 3 has only the ramified variant

    if case == "Case1-ram":
        spec = ExtensionSpec.ramified_quadratic(p, f)
        coords = (spec.residue.one(),) * rs.rank
    elif case == "Case1-unram":
        spec = ExtensionSpec.unramified(p, f, residue_degree(case, rs.rank))
        coords = (spec.residue.find_trace_zero_generator(),) * rs.rank
    elif case == "A":
        spec = ExtensionSpec.unramified(p, f, residue_degree(case, rs.rank))
        a = spec.residue.find_trace_zero_generator()
        coords = [spec.residue.frobenius(a, i) for i in range(rs.rank)]
    elif case == "Dodd":
        spec, coords = build_dodd_coordinates(rs.rank, p, f)
    elif case == "E6-ram":
        spec, coords = build_e6_coordinates("ramified_cubic", p, f)
    else:
        spec, coords = build_e6_coordinates("unramified_cubic", p, f)
    return case, spec, tuple(coords), lattice_cocycle(rs, delta, case)


def build_generic_element(
    rs_type: RootSystemType,
    delta: Optional[DiagramAutomorphism],
    p: int,
    q: Optional[int] = None,
    n: int = 1,
    ramified: bool = False,
) -> ZeroToralDatum:
    """Construct a datum for the requested form, in the case `lattice_case`
    gives; for E6, q = 1 mod 3 selects the ramified variant.  The depth is
    n + 1/e(E/F): n + 1, or n + 1/2 and n + 1/3 in the ramified cases."""
    rs = build_root_system(rs_type)
    delta = delta if delta is not None else trivial_automorphism(rs)
    q = p if q is None else q
    case, spec, coords, cocycle = form_data(rs, delta, p, q, ramified)
    if n < 1:
        raise ValueError("n must be at least 1")
    e = spec.ram_index
    datum = ZeroToralDatum(rs, delta, cocycle, spec, p, q, n, Fraction(n * e + 1, e), coords, case)
    if not verify_datum(datum).verdict:
        raise AssertionError(f"constructed datum failed verification: {rs_type}")
    return datum


# ---------------------------------------------------------------------------
# twisting
# ---------------------------------------------------------------------------


def twist_depth(depth: Fraction, i: int, p: int, m: int, e_F: int = 1) -> tuple[int, Fraction, int]:
    """(u, depth - v(i), its window index) for i = p^t * u, 0 < i < p^m,
    v(i) = t * e_F, in integers on depth = a/b in lowest terms: ValueError
    unless 2(a - v b) > a (the window inequality r0 - v(i) > r_d / 2), and
    the index of (a - v b)/b, again in lowest terms, is ceil((a - v b)/b) - 1."""
    if not 0 < i < p**m:
        raise ValueError("i must satisfy 0 < i < p^m")
    t = kernel.vp(i, p)
    a, b = depth.numerator, depth.denominator
    a_new = a - t * e_F * b
    if not 2 * a_new > a:
        raise ValueError("window inequality violated: r0 - v(i) <= r_d / 2")
    return i // p**t, Fraction(a_new, b), -(-a_new // b) - 1


def twist_datum(d: ZeroToralDatum, i: int, m: int, e_F: int = 1) -> ZeroToralDatum:
    """Scale a datum by the character power i = p^t * u, 0 < i < p^m.

    The depth drops by the normalized valuation v(i) = t * e_F; leading
    residues scale by the unit u.  The half-depth window inequality
    r0 - v(i) > r_d / 2 is checked (`twist_depth`).

    The twist is generic whenever the datum is, so genericity is not
    verified again.  Proof: each coroot row is linear in the coordinates,
    so scaling them by the unit u scales every row by u, and u*s is
    nonzero exactly when s is.
    """
    unit, depth, n = twist_depth(d.depth, i, d.p, m, e_F)
    res = d.ext.residue
    coords = d.coords if unit == 1 else tuple(res.smul(unit, c) for c in d.coords)
    return ZeroToralDatum(d.rs, d.delta, d.cocycle, d.ext, d.p, d.q, n, depth, coords, d.case)
