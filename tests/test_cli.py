"""Command-line interface: exit codes, file round trips, determinism."""

import importlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import forge
from forge import ffield, rootsys, sweep
from forge.cli import main
from forge.rootsys import RootSystemType


def _forge_env():
    """The environment for a subprocess that imports this forge."""
    src = str(Path(forge.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_build_verify_round_trip(tmp_path):
    datum = tmp_path / "e6.json"
    report = tmp_path / "report.json"
    code = main(
        [
            "build",
            "--type",
            "E6",
            "--p",
            "13",
            "--n",
            "1",
            "--ramified",
            "-o",
            str(datum),
        ]
    )
    assert code == 0
    data = json.loads(datum.read_text())
    assert data["case"] == "E6-ram"
    assert data["depth"] == "4/3"
    code = main(["verify", str(datum), "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["verdict"] == "pass"


def test_verify_tampered_exits_one(tmp_path, capsys):
    datum = tmp_path / "b2.json"
    assert main(["build", "--type", "B2", "--p", "5", "-o", str(datum)]) == 0
    data = json.loads(datum.read_text())
    data["coords"][0]["residue"] = [0, 0]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data, sort_keys=True))
    code = main(["verify", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "fail at coroot" in captured.err


def test_verify_rejects_a_uniformizer_ratio_that_is_no_cube_root_of_unity(tmp_path, capsys):
    # 2^3 = 8 in F_13, so sigma(pi_E)/pi_E = 2 names no ramified cubic extension
    datum = tmp_path / "e6.json"
    assert main(["build", "--type", "E6", "--p", "13", "--ramified", "-o", str(datum)]) == 0
    data = json.loads(datum.read_text())
    data["ext"]["unif_ratio"] = [2]
    datum.write_text(json.dumps(data, sort_keys=True))
    capsys.readouterr()
    assert main(["verify", str(datum)]) == 2
    assert "non-canonical datum" in capsys.readouterr().err


def _shift_residue(data):
    data["coords"][0]["residue"] = [r + data["p"] for r in data["coords"][0]["residue"]]


@pytest.mark.parametrize(
    "mutate",
    [
        _shift_residue,
        lambda data: data.update(extra=0),
        lambda data: data.update(q=7),
        lambda data: data.pop("case"),
        lambda data: data["coords"].pop(),
        lambda data: data["coords"][0]["residue"].pop(),
        lambda data: data.update(type=5),
        lambda data: data.update(q=5.0),
        lambda data: data.update(p=5.0),
        lambda data: data.update(n=True),
        lambda data: data["ext"]["residue"].update(f=1.0),
        lambda data: data["delta"].__setitem__(0, float(data["delta"][0])),
        lambda data: data["coords"][0].update(residue=None),
        lambda data: data["coords"][0].update(valuation="1"),
        lambda data: [c.update(valuation="1/2") for c in data["coords"]],
        lambda data: data.update(depth="3/2"),
        lambda data: data["ext"].update(kind="tame"),
        lambda data: data["ext"].update(degree=99),
        lambda data: data.update(case="E6-ram"),
        lambda data: [data["ext"].update(degree=99, ram_index=3), data.update(case="E6-ram")],
        lambda data: data["cocycle"][0].__setitem__(0, data["cocycle"][0][0] + data["p"]),
        lambda data: data.update(cocycle=[[0]]),
        lambda data: data["ext"]["residue"].update(n=10**30),
        lambda data: data["ext"]["residue"].update(f=7),
    ],
    ids=[
        "residue+p", "extra-key", "q-not-p^f", "no-case", "short-coords", "short-residue",
        "type-not-str", "q-float", "p-float", "n-bool", "f-float", "delta-float",
        "residue-null", "valuation-1", "valuations-half", "depth-times-e-not-integral",
        "ext-kind-unknown", "ext-degree-99", "case-E6-ram", "ext-degree-ram-index-and-case",
        "cocycle+p", "cocycle-zero", "residue-n-huge", "residue-f-7",
    ],
)
def test_verify_malformed_datum_exits_two(mutate, tmp_path, capsys):
    # verify runs as a subprocess with a timeout, so that an input that sends
    # forge into building a huge residue field fails the test, not hangs it
    datum = tmp_path / "a2.json"
    assert main(["build", "--type", "A2", "--p", "5", "-o", str(datum)]) == 0
    capsys.readouterr()
    data = json.loads(datum.read_text())
    mutate(data)
    datum.write_text(json.dumps(data, sort_keys=True))
    out = subprocess.run(
        [sys.executable, "-m", "forge.cli", "verify", str(datum)],
        env=_forge_env(), capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_verify_over_a_field_without_irreducible_binomials(tmp_path, capsys):
    """The A2/p5 datum moved to q = 5^7: 3 does not divide 5^7 - 1, so no
    x^3 + c is irreducible over F_{5^7}, and the modulus search skips all
    5^7 of them instead of testing each (past a 20 s timeout)."""
    datum = tmp_path / "a2.json"
    assert main(["build", "--type", "A2", "--p", "5", "-o", str(datum)]) == 0
    capsys.readouterr()
    data = json.loads(datum.read_text())
    data["q"] = 5**7
    data["ext"]["residue"]["f"] = 7
    assert data["ext"]["residue"]["modulus"] == [1, 1, 0, 1]  # x^3 + x + 1 here and over F_5
    datum.write_text(json.dumps(data, sort_keys=True))
    out = subprocess.run(
        [sys.executable, "-m", "forge.cli", "verify", str(datum)],
        env=_forge_env(), capture_output=True, text=True, timeout=20,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["verdict"] == "pass"


def test_unknown_flag_exits_two(capsys):
    assert main(["build", "--nonsense"]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_empty_list_flags_exit_two(capsys):
    assert main(["depth", "--e-F"]) == 2
    assert main(["congruence", "--m"]) == 2
    assert main(["congruence", "--N"]) == 2
    assert capsys.readouterr().err.count("expected at least one argument") == 3


def test_invalid_inputs_exit_two(tmp_path, capsys):
    assert main(["build", "--type", "Q9", "--p", "5"]) == 2
    assert main(["build", "--type", "B2", "--p", "3"]) == 2  # p <= Cox
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 2
    capsys.readouterr()


def test_sweep_deterministic_across_reruns(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["sweep", "--types", "B2,A2,G2", "--n-values", "1"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert {r["case"] for r in report["rows"]} == {"Case1-unram", "A"}
    capsys.readouterr()


def test_sweep_error_row_names_the_exception(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError()

    monkeypatch.setattr(sweep, "build_generic_element", broken)
    row = sweep.sweep_point(RootSystemType.parse("A2"), 5, 5, 1)
    assert row["case"] == "error" and not row["pass"]
    assert row["error"] == "AssertionError: "


def test_sweep_empty_grid_exits_two(capsys):
    assert main(["sweep", "--types", "G2", "--primes", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, name",
    [(["--p", "4"], "p"), (["--p", "1"], "p"), (["--m", "0"], "m")],
)
def test_congruence_rejects_invalid_p_and_m(flags, name, capsys):
    assert main(["congruence", *flags]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{name} must be" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["cusp", "--p", "4"], "p must be"),
        (["cusp", "--p", "9"], "p must be"),
        (["cusp", "--p", "15"], "p must be"),
        (["cusp", "--p", "-5"], "p must be"),
        (["congruence", "--N", "0"], "N must be"),
        (["congruence", "--N", "-1"], "N must be"),
        (["sweep", "--types", "A2", "--primes", "4"], "p must be"),
        (["sweep", "--types", "A2", "--n-values", "0"], "n values must be"),
        (["sweep", "--types", "A2", "--q-exponents", "0"], "q exponents must be"),
        (["build", "--type", "A2", "--p", "5", "--ramified"], "A2"),
        (["build", "--type", "D5", "--p", "11", "--ramified"], "D5"),
        (["cusp", "--m", "0"], "m must be"),
        (["cusp", "--samples", "0"], "samples must be"),
        (["cusp", "--samples", "-3"], "samples must be"),
        (["depth", "--max-m", "0"], "max-m must be"),
        (["depth", "--level-m", "0"], "level-m must be"),
        (["depth", "--level-m", "-1"], "level-m must be"),
        (["depth", "--level-p", "9"], "p must be"),
        (["depth", "--level-p", "25"], "p must be"),
        (["build", "--type", "A2", "--p", "3317044064679887385962123"], "3317044064679887385961981"),
        (["cusp", "--p", "3317044064679887385962123"], "3317044064679887385961981"),
        (["build", "--type", "A2", "--p", "5", "--q", "0"], "q must be a power of p"),
        (["build", "--type", "A2", "--p", "5", "--q", "-5"], "q must be a power of p"),
        (["cusp", "--x", "-1"], "1 <= x < p^(m+1) = 125"),
        (["cusp", "--x", "0"], "1 <= x < p^(m+1) = 125"),
        (["cusp", "--x", "249"], "1 <= x < p^(m+1) = 125"),
        (["cusp", "--p", "7", "--m", "1", "--x", "49"], "1 <= x < p^(m+1) = 49"),
    ],
    ids=[
        "cusp-p4", "cusp-p9", "cusp-p15", "cusp-p-5", "congruence-N0", "congruence-N-1",
        "sweep-prime-4", "sweep-n0", "sweep-q-exponent-0", "build-A2-ramified",
        "build-D5-ramified", "cusp-m0", "cusp-samples0", "cusp-samples-3", "depth-max-m0",
        "depth-level-m0", "depth-level-m-1", "depth-level-p9", "depth-level-p25",
        "build-p-above-mr-bound", "cusp-p-above-mr-bound", "build-q0", "build-q-5",
        "cusp-x-1", "cusp-x0", "cusp-x249", "cusp-p7-m1-x49",
    ],
)
def test_invalid_parameters_exit_two(argv, name, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert name in err
    assert not out.exists()


def _set(path, value):
    """A mutation that sets config[path[0]]...[path[-1]] = value."""

    def mutate(config):
        for key in path[:-1]:
            config = config[key]
        config[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        lambda config: config.pop("p"),
        lambda config: config["gamma_s"].pop("n"),
        _set(["u_s"], [[5, 0, 2]]),
        _set(["u_p"], [100, 100, 100]),
        _set(["lambda"], {}),
        _set(["u_s"], "ab"),
        _set(["extra"], 0),
        _set(["lambda", "images", 2], 10),
        _set(["gamma_s", "n"], -1),
        _set(["u_s", 0, 0], 1.0),
        _set(["m"], 2.0),
    ],
    ids=[
        "no-p", "group-without-n", "u_s-not-in-S3", "u_p-int", "lambda-empty", "u_s-str",
        "extra-key", "image-10-mod-9", "n-negative", "u_s-float", "m-float",
    ],
)
def test_congruence_rejects_malformed_model_config(mutate, tmp_path, capsys):
    from forge.congruence import builtin_free_model

    config = builtin_free_model(3, 2).to_config()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    assert main(["congruence", "--model-config", str(path), "--N", "1", "-o", str(tmp_path / "r.json")]) == 0
    mutate(config)
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["congruence", "--model-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_model_config_lambda_clash_in_one_factor(tmp_path, capsys):
    from forge.congruence import builtin_free_model

    # (0, 3) in Heis(3) x Z/9 has order 3, but its image 1 has order 9
    config = builtin_free_model(3, 2).to_config()
    config["u_p"][2] = [[0, 0, 0], 3]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "r.json"
    assert main(["congruence", "--model-config", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lambda is not a homomorphism") and "Traceback" not in err
    assert not out.exists()


def test_model_config_checks_every_N(tmp_path, capsys):
    from forge.congruence import builtin_nonfree_model

    path = tmp_path / "model.json"
    path.write_text(json.dumps(builtin_nonfree_model(3, 2).to_config()))
    out = tmp_path / "r.json"
    for N in ("0", "-5"):
        assert main(["congruence", "--model-config", str(path), "--N", "1", N, "-o", str(out)]) == 2
        assert "N must be" in capsys.readouterr().err
        assert not out.exists()
    # the non-free model fails only its quotient-map check
    assert main(["congruence", "--model-config", str(path), "--N", "1", "2", "-o", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [(c["kind"], c.get("N"), c["passed"]) for c in checks] == [
        ("space+hecke", 1, True),
        ("space+hecke", 2, True),
        ("quotient-map", None, False),
    ]
    capsys.readouterr()


def test_congruence_battery_cli(tmp_path):
    out = tmp_path / "congruence.json"
    assert main(["congruence", "--p", "3", "--m", "1", "--N", "1", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]


# sha256 of the battery reports: they pin the quotient sizes, the level-map
# images and every canonical cusp sum byte for byte
BATTERY_REPORT_SHA256 = {
    ("congruence",): "7ea02d3d57aa707453036f5fd5d23207a3f5fb4ac962ec12fd07ae3b80da1366",
    ("congruence", "--p", "5", "--m", "1", "2", "3"): (
        "a978ab951c66dce04573797c525a80889cf4c99b8b2df871724f4c10e6394eb1"
    ),
    ("depth",): "d45cd69e89a59eed1deecf223dd0fba81893f6ba70096f380fb79a9ea3b1b093",
    ("cusp",): "a5cfc8f90efbcc03c2fae338ca0131b7bb47e1c390925d38b3ef341d3afaea19",
}


@pytest.mark.parametrize("argv", list(BATTERY_REPORT_SHA256), ids=" ".join)
def test_battery_report_bytes(argv, tmp_path, capsys):
    import hashlib

    out = tmp_path / "report.json"
    assert main([*argv, "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BATTERY_REPORT_SHA256[argv]


def _model_configs() -> dict:
    from forge.congruence import FiniteModel, builtin_nonfree_model
    from forge.finitegroups import CyclicGroup, SymmetricGroup

    # tau = (0 2) meets U_S = <(0 1)> after conjugation on some orbits only
    mixed_t = FiniteModel(
        SymmetricGroup(3), CyclicGroup(8), [(1, 0, 2)], [1], [1], 2, 3,
        delta_gens=[((2, 1, 0), 4)], name="mixed-t-s3-z8",
    )
    return {model.name: model.to_config() for model in (builtin_nonfree_model(5, 3), mixed_t)}


# sha256 and exit code of `forge congruence --model-config` on two models with
# Delta != 1; both fail only their quotient-map check
MODEL_REPORT_SHA256 = {
    "nonfree-cyclic-p5-m3": "171e919eac0ae96e673b0e51ce5e87a7b73870f898955ff17b41e6b3d5ccba23",
    "mixed-t-s3-z8": "fe9dc5e67acdd8703499dfea42175dcb98008a2bdf5be935e176946b11a57027",
}


@pytest.mark.parametrize("name", list(MODEL_REPORT_SHA256))
def test_model_config_report_bytes(name, tmp_path, capsys):
    import hashlib

    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(_model_configs()[name]))
    assert main(["congruence", "--model-config", str(path), "-o", str(out)]) == 1
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MODEL_REPORT_SHA256[name]


# in a child capped at 2 GiB of address space, so that a model file that
# makes forge list a huge group fails the test instead of exhausting memory
_BOUNDED_CHILD = """
import contextlib, io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from forge.cli import main
out = []
for path in sys.argv[2:]:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(["congruence", "--model-config", path, "-o", sys.argv[1]])
    out.append([code, time.perf_counter() - start, err.getvalue()])
print(json.dumps(out))
"""


def test_model_config_over_the_order_bound_exits_two(tmp_path):
    """Each edit makes a group the model lists, or p^m, far larger than
    ORDER_BOUND; each exits 2 naming the bound in under a second."""
    from forge.congruence import builtin_cyclic_model, builtin_free_model

    edits = [
        (builtin_cyclic_model, ["gamma_p", "order"], 10**30),
        (builtin_cyclic_model, ["gamma_p", "order"], 5**12),
        (builtin_cyclic_model, ["gamma_s", "n"], 10**30),
        (builtin_free_model, ["gamma_p", "left", "p"], 10**30),
        (builtin_cyclic_model, ["m"], 10**30),
    ]
    paths = []
    for i, (build, keys, value) in enumerate(edits):
        config = build(5, 2).to_config()
        _set(keys, value)(config)
        paths.append(tmp_path / f"model{i}.json")
        paths[-1].write_text(json.dumps(config))
    out = subprocess.run(
        [sys.executable, "-c", _BOUNDED_CHILD, str(tmp_path / "r.json"), *map(str, paths)],
        env=_forge_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    for (code, seconds, err), edit in zip(json.loads(out.stdout), edits):
        assert code == 2, (edit, err)
        assert err.startswith("error: order bound exceeded") and "ORDER_BOUND = 1000000" in err, err
        assert seconds < 1, (edit, seconds)
    assert not (tmp_path / "r.json").exists()


def test_cusp_cli_small(tmp_path):
    out = tmp_path / "cusp.json"
    code = main(
        ["cusp", "--p", "5", "--n", "3", "--m", "1", "--x", "1", "--samples", "6", "-o", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["x_classes"] == 1


def test_depth_cli(tmp_path):
    out = tmp_path / "depth.json"
    assert main(["depth", "--max-m", "3", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert report["level_map"]["surjective"]
    assert report["torus_filtration"]["surjective"]


def test_import_leaves_sympy_unloaded():
    """The runtime is stdlib-only: sympy is a test oracle, not a dependency."""
    code = "import sys, forge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"
    out = subprocess.run([sys.executable, "-c", code], env=_forge_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_traced_names_resolve():
    """The benchmark's tracer wraps forge functions by module and qualified
    name and fails on a missing one; every name it lists must resolve, so a
    function it counts (`log_truncated`, say) stays importable even with no
    caller in forge.  Its traced pass also reads the hit and miss counts of
    the two constructor caches."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))
    names = tracing["SPANNED"] + tracing["COUNTED"] + (tracing["CANDIDATES"],)
    assert len(names) > 40
    for _, module, qualname in names:
        owner = importlib.import_module(module)
        for part in qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, qualname)
    for cached in (rootsys.build_root_system, ffield.build_extension):
        assert set(cached.cache_info()._fields) >= {"hits", "misses"}
