"""Command-line front end: build, verify, sweep, congruence, cusp, depth.

Exit codes: 0 all verifications passed, 1 a verification failed (a report
is still written), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .congruence import (
    FiniteModel,
    MatrixRep,
    build_space,
    builtin_cyclic_model,
    builtin_free_model,
    builtin_nonfree_model,
    decompose_rational,
    nonconstant_check,
    quotient_map_check,
    verify_congruence_theorem,
)
from .cuspcheck import (
    cusp_integral_check,
    default_samples,
    elliptic_seed,
    fourier_support_check,
    lambda_character,
    unipotent_support_profiles,
    x_class_representatives,
)
from .depthcalc import (
    character_image_order,
    factor_level_map,
    level_window,
    torus_power_filtration,
    unramified_torus_lattice,
)
from .rootsys import (
    DiagramAutomorphism,
    RootSystemType,
    build_root_system,
    standard_involution,
    trivial_automorphism,
)
from .sweep import (
    SweepConfig,
    all_irreducible_types,
    report_to_json,
    report_to_text,
    run_sweep,
)
from .toraldata import build_generic_element, datum_from_json, verify_datum


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    rs_type = RootSystemType.parse(args.type)
    rs = build_root_system(rs_type)
    delta = None
    if args.delta == "involution":
        delta = standard_involution(rs)
    elif args.delta == "triality":
        if str(rs_type) != "D4":
            raise ValueError("triality is only available for D4")
        delta = DiagramAutomorphism((3, 2, 4, 1))
    elif args.delta == "trivial":
        delta = trivial_automorphism(rs)
    datum = build_generic_element(rs_type, delta, args.p, args.q, args.n, ramified=args.ramified)
    if args.ramified and datum.case not in ("Case1-ram", "E6-ram"):
        raise ValueError(
            f"--ramified has no ramified construction for {rs_type} with this form "
            f"(it builds case {datum.case})"
        )
    report = verify_datum(datum)
    _write(args.output, datum.to_json() + "\n")
    if args.report:
        _write(args.report, report.to_json() + "\n")
    print(f"built {rs_type} datum, case {datum.case}, depth {datum.depth}", file=sys.stderr)
    return 0 if report.verdict else 1


def cmd_verify(args) -> int:
    with open(args.datum) as fh:
        datum = datum_from_json(fh.read())
    report = verify_datum(datum)
    _write(args.report, report.to_json() + "\n")
    if not report.verdict:
        for row in report.failing_coroots():
            print(f"fail at coroot {list(row.expansion)}", file=sys.stderr)
        for row in report.descent_rows:
            if not row.ok:
                print(f"descent fail: {row.equation} index {row.index}", file=sys.stderr)
    return 0 if report.verdict else 1


def cmd_sweep(args) -> int:
    if args.types == "all":
        types = tuple(all_irreducible_types(args.max_rank))
    else:
        types = tuple(RootSystemType.parse(t) for t in args.types.split(","))
    if not types:
        raise ValueError("empty type list")
    config = SweepConfig(
        types=types,
        primes_per_type=args.primes_per_type,
        explicit_primes=tuple(args.primes or ()),
        q_exponents=tuple(args.q_exponents),
        n_values=tuple(args.n_values),
    )
    out = run_sweep(config)
    _write(args.output, report_to_json(out["report"]))
    if args.text or not args.output:
        sys.stderr.write(report_to_text(out["report"], out["timings"]))
    return 0 if out["report"]["failures"] == 0 else 1


def cmd_congruence(args) -> int:
    p = args.p
    results = {"p": p, "checks": [], "models": []}

    def check(model, kind, passed, **tags):
        results["checks"].append({"model": model.name, **tags, "kind": kind, "passed": passed})

    def space_hecke(model, **tags):  # one space+hecke check per --N
        results["models"].append(model.to_config())
        for N in args.N:
            check(model, "space+hecke", verify_congruence_theorem(model, N=N).passed, N=N, **tags)

    if args.model_config:
        with open(args.model_config) as fh:
            model = FiniteModel.from_config(json.load(fh))
        space_hecke(model)
        check(model, "quotient-map", quotient_map_check(model)[0])
    else:
        for m in args.m:
            free = builtin_free_model(p, m)
            space_hecke(free, m=m)
            space = build_space(free, "am_psi")
            dec = decompose_rational(space)
            check(
                free,
                "rational-decomposition",
                dec["rational_dimension"] == (p**m - 1) * len(space.orbit_reps),
                m=m,
                component_ranks={str(k): v for k, v in dec["component_ranks"].items()},
            )
            check(free, "quotient-map", quotient_map_check(free)[0], m=m)
            if m >= 2:
                nonfree = builtin_nonfree_model(p, m)
                check(nonfree, "quotient-map-negative", not quotient_map_check(nonfree)[0], m=m)
        # non-constant coefficients: action trivial mod p^2, not mod p^3
        cyclic = builtin_cyclic_model(p, 3)
        matrep = MatrixRep(2, 3, {1: ((1, p**2), (0, 1))})
        for m, expect_shrink in ((2, False), (3, True)):
            out = nonconstant_check(cyclic, matrep, m)
            good = out.details["shrink"] == expect_shrink and (out.passed or expect_shrink)
            check(cyclic, "nonconstant", good, m=m)
    ok = all(c["passed"] for c in results["checks"])
    results["passed"] = ok
    _write(args.output, json.dumps(results, sort_keys=True, indent=1) + "\n")
    if args.model_config:
        print(f"model {model.name}: {'pass' if ok else 'FAIL'}", file=sys.stderr)
    else:
        print(
            f"congruence battery p={p}: {len(results['checks'])} checks, "
            f"{'all pass' if ok else 'FAILURES'}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_cusp(args) -> int:
    seed = elliptic_seed(args.p, args.K)
    char = lambda_character(seed, args.n, args.m)
    if args.x is not None and not 1 <= args.x < args.p ** (args.m + 1):
        raise ValueError(f"x must satisfy 1 <= x < p^(m+1) = {args.p ** (args.m + 1)}, got x = {args.x}")
    samples = default_samples(char, args.samples)
    profiles = unipotent_support_profiles(char, samples)
    xs = x_class_representatives(args.p, args.m) if args.x is None else [args.x]
    rows = []
    ok = True
    for x in xs:
        out = cusp_integral_check(char, x, profiles=profiles)
        ok = ok and out["passed"]
        rows.append({"x": x, "passed": out["passed"], "rows": out["rows"]})
    fourier = fourier_support_check(seed, args.m, xs[0])
    ok = ok and fourier["indicator"] == 1
    report = {
        "p": args.p,
        "n": args.n,
        "m": args.m,
        "K": args.K,
        "samples": len(samples),
        "x_classes": len(xs),
        "cusp": rows,
        "fourier": fourier,
        "passed": ok,
    }
    _write(args.output, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(
        f"cusp battery p={args.p} n={args.n} m={args.m}: "
        f"{len(xs)} classes x {len(samples)} samples x 2 parabolics: "
        f"{'all sums vanish' if ok else 'FAILURES'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def cmd_depth(args) -> int:
    for flag, value in (("max-m", args.max_m), ("level-m", args.level_m)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {flag} = {value}")
    rows = []
    ok = True
    for e_F in args.e_F:
        for m in range(1, args.max_m + 1):
            params = level_window(e_F, m)
            lat = unramified_torus_lattice(1, e_F)
            hi = Fraction(params.n + 1)
            got = character_image_order(hi, lat)
            good = got == m
            if m >= 2:
                good = good and character_image_order(hi - 2 * e_F, lat) == m - 1
            ok = ok and good
            rows.append(
                {
                    "e_F": e_F,
                    "m": m,
                    "n": params.n,
                    "order_exponent": got,
                    "passed": good,
                }
            )
    lm = factor_level_map(2 * args.level_m, unramified_torus_lattice(2, 1), args.level_m, [1, 1], args.level_p)
    torus = torus_power_filtration(args.level_p, 1, args.level_m, max(args.level_m + 2, 2 * args.level_m))
    report = {
        "window_orders": rows,
        "level_map": lm.to_json_dict(),
        "torus_filtration": torus.to_json_dict(),
        "passed": ok and lm.surjective and torus.surjective,
    }
    _write(args.output, json.dumps(report, sort_keys=True, indent=1) + "\n")
    print(
        f"depth battery: {len(rows)} window checks, "
        f"{'all pass' if report['passed'] else 'FAILURES'}",
        file=sys.stderr,
    )
    return 0 if report["passed"] else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forge",
        description="exact arithmetic certificates: generic elements, levels, congruences, cusp sums",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct and verify a datum")
    b.add_argument("--type", required=True)
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--q", type=int, default=None)
    b.add_argument("--n", type=int, default=1)
    b.add_argument("--ramified", action="store_true")
    b.add_argument(
        "--delta", choices=["trivial", "involution", "triality"], default="trivial"
    )
    b.add_argument("-o", "--output", default=None)
    b.add_argument("--report", default=None)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="re-verify a datum file")
    v.add_argument("datum")
    v.add_argument("--report", default=None)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("sweep", help="build+verify across a type/prime grid")
    s.add_argument("--types", default="all")
    s.add_argument("--max-rank", type=int, default=8)
    s.add_argument("--primes-per-type", type=int, default=2)
    s.add_argument("--primes", type=int, nargs="*", default=None)
    s.add_argument("--q-exponents", type=int, nargs="*", default=[1])
    s.add_argument("--n-values", type=int, nargs="*", default=[1, 2])
    s.add_argument("--text", action="store_true")
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("congruence", help="run the finite-model battery")
    c.add_argument("--model-config", default=None, help="JSON model file to check")
    c.add_argument("--p", type=int, default=3)
    c.add_argument("--m", type=int, nargs="+", default=[1, 2])
    c.add_argument("--N", type=int, nargs="+", default=[1, 2])
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_congruence)

    u = sub.add_parser("cusp", help="cusp-sum and transform-support battery")
    u.add_argument("--p", type=int, default=5)
    u.add_argument("--n", type=int, default=4)
    u.add_argument("--m", type=int, default=2)
    u.add_argument("--x", type=int, default=None)
    u.add_argument("--K", type=int, default=8)
    u.add_argument("--samples", type=int, default=20)
    u.add_argument("-o", "--output", default=None)
    u.set_defaults(func=cmd_cusp)

    d = sub.add_parser("depth", help="window/order table and level maps")
    d.add_argument("--e-F", dest="e_F", type=int, nargs="+", default=[1, 2, 3])
    d.add_argument("--max-m", type=int, default=4)
    d.add_argument("--level-p", type=int, default=3)
    d.add_argument("--level-m", type=int, default=2)
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_depth)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
