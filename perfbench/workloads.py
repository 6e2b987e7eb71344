"""The three workloads: inputs from a seed, one pass, and the known answers.

`make_inputs` and `run_pass` run in a fresh interpreter (see worker.py) and
import `forge`; `check_pass` runs in the parent and imports nothing of it.

Why these workloads:
  sweep     the README's full grid (`forge sweep --q-exponents 1 2`), the main
            user command; most of its time is finite-field construction, so
            kernel and per-field scheduling changes show here.
  reverify  `datum_from_json` + `verify_datum` over serialized datums, the path
            `forge verify` takes; it never searches for a generator, so a gain
            there should not show here, and it is the only workload whose known
            answers include `fail`.
  batteries the congruence, cusp and depth checks; `congruence`, `cuspcheck`
            and `depthcalc` run nowhere else, and `ffield` not at all.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

WORKLOADS = ("sweep", "reverify", "batteries")
DEFAULT_SEED = 2009

# the sweep grid of `forge sweep --q-exponents 1 2`
SWEEP_GRID = {"primes_per_type": 2, "q_exponents": [1, 2], "n_values": [1, 2]}
# reverify: extra `--ramified` datums beside the grid; tampered copies
RAMIFIED_E6_PRIME = 19  # q = 19 = 1 mod 3 and not a grid prime of E6
TAMPERED = 64
# batteries
CONGRUENCE = {"p": 5, "m": [1, 2, 3], "N": [1, 2]}
CUSP = {"p": 5, "n": 4, "m": 2, "K": 8, "samples": 100}
DEPTH = {
    # the `forge depth` window table (e_F 1..3, m 1..4) widened to 50 checks:
    # with 15 long checks above 120 x-class checks of ~3 ms, 154 items put p90
    # on the step between the two, where it moved by 23% between runs
    "e_F": [1, 2, 3, 4, 5],
    "max_m": 10,
    "level": {"p": 3, "m": 2},
    # (q, e, m, K): the `forge depth` default and two tame ramified inputs
    "filtrations": [[3, 1, 2, 4], [49, 4, 3, 6], [125, 3, 3, 6]],
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep_config(inputs: dict):
    from forge.rootsys import RootSystemType
    from forge.sweep import SweepConfig

    return SweepConfig(
        types=tuple(RootSystemType.parse(t) for t in inputs["types"]),
        primes_per_type=inputs["primes_per_type"],
        q_exponents=tuple(inputs["q_exponents"]),
        n_values=tuple(inputs["n_values"]),
    )


# ---------------------------------------------------------------------------
# inputs (child side)
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs.  The seed never changes the order of the work:
    within a pass the first item that needs a field or table pays for
    building it, and a seeded order moved p90 by about 10% between seeds."""
    rng = random.Random(f"{workload}:{seed}")
    from forge.sweep import all_irreducible_types

    types = [str(t) for t in all_irreducible_types(8)]
    if workload == "sweep":
        # the seed picks nothing: seeded primes change the work up to 2.5x
        return {"types": types, **SWEEP_GRID}
    if workload == "reverify":
        return {"docs": _reverify_corpus(types, rng)}
    if workload == "batteries":
        # the seed picks nothing: seeded cusp samples moved item_p50_ms by 13%
        return {}
    raise ValueError(f"unknown workload {workload!r}")


def _reverify_corpus(types: list[str], rng: random.Random) -> list[dict]:
    from forge.rootsys import RootSystemType
    from forge.toraldata import build_generic_element

    config = _sweep_config({"types": types, **SWEEP_GRID})
    docs = []
    first_prime = {}
    for t, p, q, n in config.grid()[0]:
        first_prime.setdefault(t, p)
        text = build_generic_element(t, None, p, q, n).to_json()
        docs.append({"id": f"{t}/p{p}/q{q}/n{n}", "text": text, "expect": "pass"})
    # `--ramified` datums: Case1-ram for every type that has it, at its first
    # grid prime, and E6-ram at a prime outside the E6 grid
    e6_extra = (RootSystemType.parse("E6"), RAMIFIED_E6_PRIME)
    for t, p in [*first_prime.items(), e6_extra]:
        for n in SWEEP_GRID["n_values"]:
            datum = build_generic_element(t, None, p, p, n, ramified=True)
            if datum.case == "Case1-ram" or (t, p) == e6_extra:
                docs.append({"id": f"{t}/p{p}/q{p}/n{n}/ram", "text": datum.to_json(), "expect": "pass"})
    # negative controls: one simple-coroot residue set to zero, in 64 evenly
    # spaced datums; the seed picks only the coordinate, since a seeded choice
    # of datum (an E8 costs 5x an A1 to verify) moved item_p90_ms with the seed
    docs.sort(key=lambda d: d["id"])
    for src in [docs[k * len(docs) // TAMPERED] for k in range(TAMPERED)]:
        data = json.loads(src["text"])
        i = rng.randrange(len(data["coords"]))
        data["coords"][i]["residue"] = [0] * len(data["coords"][i]["residue"])
        docs.append(
            {
                "id": f"{src['id']}/zero{i + 1}",
                "text": json.dumps(data, sort_keys=True),
                "expect": "fail",
                "zeroed": i,
            }
        )
    docs.sort(key=lambda d: d["id"])  # a tampered copy right after its source
    return docs


# ---------------------------------------------------------------------------
# one pass (child side)
# ---------------------------------------------------------------------------


def run_pass(workload: str, inputs: dict) -> dict:
    """Run one pass; return wall time, per-item times and verdicts, output digests."""
    return {"sweep": _sweep_pass, "reverify": _reverify_pass, "batteries": _battery_pass}[
        workload
    ](inputs)


def _sweep_pass(inputs: dict) -> dict:
    from forge import sweep

    config = _sweep_config(inputs)
    # run_sweep's own row timings are whole milliseconds (median row ~9 ms),
    # too coarse for a percentile; time each sweep_point call instead
    item_s = {}
    inner = sweep.sweep_point

    def timed_point(t, p, q, n, *args, **kwargs):
        t0 = time.perf_counter()
        row = inner(t, p, q, n, *args, **kwargs)
        item_s[f"{t}/p{p}/q{q}/n{n}"] = time.perf_counter() - t0
        return row

    sweep.sweep_point = timed_point
    try:
        t0 = time.perf_counter()
        out = sweep.run_sweep(config)
        text = sweep.report_to_json(out["report"])
        wall = time.perf_counter() - t0
    finally:
        sweep.sweep_point = inner
    items = []
    for r in out["report"]["rows"]:
        key = f'{r["type"]}/p{r["p"]}/q{r["q"]}/n{r["n"]}'
        items.append(
            {
                "id": key,
                "s": item_s.get(key),
                "verdict": "pass" if r["pass"] else "fail",
                "error": r["error"],
            }
        )
    return {
        "wall_s": wall,
        "items": items,
        "skipped": len(out["report"]["skipped"]),
        "digests": {"sweep": sha256(text)},
    }


def _reverify_pass(inputs: dict) -> dict:
    from forge.toraldata import datum_from_json, verify_datum

    items, reports = [], []
    t0 = time.perf_counter()
    for doc in inputs["docs"]:
        ti = time.perf_counter()
        try:
            report = verify_datum(datum_from_json(doc["text"]))
            verdict, error = ("pass" if report.verdict else "fail"), ""
        except Exception as exc:  # an exception is a wrong answer, not a crash
            report, verdict, error = None, "error", f"{type(exc).__name__}: {exc}"
        items.append({"id": doc["id"], "s": time.perf_counter() - ti, "verdict": verdict, "error": error})
        reports.append(report)
    wall = time.perf_counter() - t0
    outputs = []
    for item, report in zip(items, reports):
        if report is not None:
            item["failing"] = [list(r.expansion) for r in report.failing_coroots()]
            outputs.append(report.to_json())
    return {"wall_s": wall, "items": items, "digests": {"reverify": sha256("\n".join(outputs))}}


def _battery_pass(inputs: dict) -> dict:
    sections = {
        "congruence": list(_congruence_items()),
        "cusp": list(_cusp_items()),
        "depth": list(_depth_items()),
    }
    # interleave the sections in proportion, keeping each section's order: the
    # 120 short x-class checks then spread over the whole pass; run back to
    # back they took 0.3 s, and one slow moment of a shared machine moved
    # item_p50_ms by 25% between passes
    order = sorted(
        ((k + 0.5) / len(checks), section, k)
        for section, checks in sections.items()
        for k in range(len(checks))
    )
    items, rows = [], {section: [] for section in sections}
    t0 = time.perf_counter()
    for _, section, k in order:
        item_id, check = sections[section][k]
        ti = time.perf_counter()
        try:
            passed, detail = check()
            error = ""
        except Exception as exc:  # an exception is a wrong answer, not a crash
            passed, detail, error = False, None, f"{type(exc).__name__}: {exc}"
        items.append(
            {
                "id": item_id,
                "s": time.perf_counter() - ti,
                "verdict": "passed" if passed else "failed",
                "error": error,
            }
        )
        rows[section].append({"id": item_id, "passed": bool(passed), "detail": detail})
    wall = time.perf_counter() - t0
    digests = {}
    for section, section_rows in rows.items():
        section_rows.sort(key=lambda r: r["id"])
        digests[f"batteries.{section}"] = sha256(json.dumps(section_rows, sort_keys=True, indent=1) + "\n")
    return {"wall_s": wall, "items": items, "digests": digests}


def _congruence_items():
    """The `forge congruence` battery, one item per check."""
    from forge.congruence import (
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

    p = CONGRUENCE["p"]
    models = {}

    def free(m):  # built once per m, by the first check that needs it
        if m not in models:
            models[m] = builtin_free_model(p, m)
        return models[m]

    for m in CONGRUENCE["m"]:
        for N in CONGRUENCE["N"]:

            def hecke(m=m, N=N):
                rep = verify_congruence_theorem(free(m), N=N)
                return rep.passed, json.loads(rep.to_json())

            yield f"congruence/m{m}/N{N}/space+hecke", hecke

        def decomposition(m=m):
            space = build_space(free(m), "am_psi")
            dec = decompose_rational(space)
            ok = dec["rational_dimension"] == (p**m - 1) * len(space.orbit_reps)
            return ok, {str(k): v for k, v in dec["component_ranks"].items()}

        yield f"congruence/m{m}/rational-decomposition", decomposition

        def quotient(m=m):
            ok, detail = quotient_map_check(free(m))
            return ok, detail

        yield f"congruence/m{m}/quotient-map", quotient
        if m >= 2:

            def quotient_negative(m=m):
                bad, detail = quotient_map_check(builtin_nonfree_model(p, m))
                return not bad, detail

            yield f"congruence/m{m}/quotient-map-negative", quotient_negative

    # non-constant coefficients: trivial mod p^2, not mod p^3 (shrink expected)
    for m, expect_shrink in ((2, False), (3, True)):

        def nonconstant(m=m, expect_shrink=expect_shrink):
            model = builtin_cyclic_model(p, 3)
            out = nonconstant_check(model, MatrixRep(2, 3, {1: ((1, p**2), (0, 1))}), m)
            ok = out.details["shrink"] == expect_shrink and (out.passed or expect_shrink)
            return ok, json.loads(out.to_json())

        yield f"congruence/m{m}/nonconstant", nonconstant


def _cusp_items():
    """The `forge cusp` battery, one item per x-class."""
    from forge.cuspcheck import (
        cusp_integral_check,
        default_samples,
        elliptic_seed,
        fourier_support_check,
        lambda_character,
        unipotent_support_profiles,
        x_class_representatives,
    )

    p, n, m, K = CUSP["p"], CUSP["n"], CUSP["m"], CUSP["K"]
    state = {}

    def profiles():
        state["seed"] = elliptic_seed(p, K)
        state["char"] = lambda_character(state["seed"], n, m)
        samples = default_samples(state["char"], CUSP["samples"])
        state["profiles"] = unipotent_support_profiles(state["char"], samples)
        nonempty = sum(1 for prof in state["profiles"] if prof["support_points_mod_period"])
        return nonempty > 0, {"samples": len(samples), "nonempty": nonempty}

    yield "cusp/profiles", profiles
    xs = x_class_representatives(p, m)
    for x in xs:

        def integral(x=x):
            out = cusp_integral_check(state["char"], x, profiles=state["profiles"])
            return out["passed"], out

        yield f"cusp/x{x:04d}", integral

    def fourier():
        out = fourier_support_check(state["seed"], m, xs[0])
        return out["indicator"] == 1, out

    yield "cusp/fourier", fourier


def _depth_items():
    """The `forge depth` window table and level map, plus ramified filtrations."""
    from fractions import Fraction

    from forge.depthcalc import (
        character_image_order,
        factor_level_map,
        level_window,
        torus_power_filtration,
        unramified_torus_lattice,
    )

    for e_F in DEPTH["e_F"]:
        for m in range(1, DEPTH["max_m"] + 1):

            def window(e_F=e_F, m=m):
                params = level_window(e_F, m)
                lat = unramified_torus_lattice(1, e_F)
                hi = Fraction(params.n + 1)
                got = character_image_order(hi, lat)
                ok = got == m
                if m >= 2:
                    ok = ok and character_image_order(hi - 2 * e_F, lat) == m - 1
                return ok, {"n": params.n, "order_exponent": got}

            yield f"depth/window/e{e_F}/m{m}", window

    def level_map():
        lp, lm = DEPTH["level"]["p"], DEPTH["level"]["m"]
        out = factor_level_map(2 * lm, unramified_torus_lattice(2, 1), lm, [1, 1], lp)
        return out.surjective, out.to_json_dict()

    yield "depth/level-map", level_map
    for q, e, m, K in DEPTH["filtrations"]:

        def filtration(q=q, e=e, m=m, K=K):
            out = torus_power_filtration(q, e, m, K)
            return out.surjective, out.to_json_dict()

        yield f"depth/filtration/q{q}/e{e}/m{m}/K{K}", filtration


# ---------------------------------------------------------------------------
# known answers (parent side)
# ---------------------------------------------------------------------------


def check_pass(workload: str, inputs: dict, result: dict, digests: dict, seed: int) -> list[str]:
    """Problems found in one pass's verdicts and digests; empty when all is right.

    Each problem names one item or one digest; the caller counts a run as
    incorrect when any is found.
    """
    problems = []
    items = result["items"]
    if workload == "sweep":
        grid = inputs["primes_per_type"] * len(inputs["q_exponents"]) * len(inputs["n_values"])
        expected = len(inputs["types"]) * grid
        if len(items) != expected or result["skipped"]:
            problems.append(f"sweep: {len(items)} rows, {result['skipped']} skipped; expected {expected}, 0")
        for item in items:
            if item["verdict"] != "pass" or item["s"] is None:
                problems.append(f"{item['id']}: {item['verdict']} {item['error']}".strip())
    elif workload == "reverify":
        docs = {d["id"]: d for d in inputs["docs"]}
        if [i["id"] for i in items] != [d["id"] for d in inputs["docs"]]:
            problems.append("reverify: items do not match the corpus")
        for item in items:
            doc = docs.get(item["id"])
            if doc is None or item["verdict"] != doc["expect"]:
                problems.append(f"{item['id']}: {item['verdict']} {item['error']}".strip())
            elif doc["expect"] == "fail":
                simple = [0] * len(json.loads(doc["text"])["coords"])
                simple[doc["zeroed"]] = 1
                if simple not in item["failing"]:
                    problems.append(f"{item['id']}: simple coroot {simple} not among the failing")
    else:
        for item in items:
            if item["verdict"] != "passed":
                problems.append(f"{item['id']}: {item['verdict']} {item['error']}".strip())
    for key, value in result["digests"].items():
        expected = digests.get(key, digests.get(f"{key}@seed={seed}"))
        if expected is not None and value != expected:
            problems.append(f"{key}: output digest {value[:12]} differs from recorded {expected[:12]}")
    return problems
