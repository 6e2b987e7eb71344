"""Grid sweeps over generic-element data with deterministic reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import kernel
from .rootsys import RootSystemType, coxeter_number
from .toraldata import build_generic_element, twist_datum


def all_irreducible_types(max_rank: int = 8) -> list[RootSystemType]:
    out = [RootSystemType("A", s) for s in range(1, max_rank + 1)]
    out += [RootSystemType("B", s) for s in range(2, max_rank + 1)]
    out += [RootSystemType("C", s) for s in range(3, max_rank + 1)]
    out += [RootSystemType("D", s) for s in range(4, max_rank + 1)]
    out += [RootSystemType("E", s) for s in (6, 7, 8) if s <= max_rank]
    if max_rank >= 4:
        out.append(RootSystemType("F", 4))
    if max_rank >= 2:
        out.append(RootSystemType("G", 2))
    return out


def smallest_primes_above(bound: int, count: int) -> list[int]:
    out = []
    p = bound
    for _ in range(count):
        p += 1
        while not kernel.is_prime(p):
            p += 1
        out.append(p)
    return out


@dataclass(frozen=True)
class SweepConfig:
    types: tuple[RootSystemType, ...]
    primes_per_type: int = 2
    explicit_primes: tuple[int, ...] = ()
    q_exponents: tuple[int, ...] = (1,)
    n_values: tuple[int, ...] = (1, 2)

    def grid(self) -> tuple[list[tuple], list[dict]]:
        for p in self.explicit_primes:
            if not kernel.is_prime(p):
                raise ValueError(f"p must be prime, got p = {p}")
        if min(self.q_exponents, default=1) < 1:
            raise ValueError("q exponents must be at least 1")
        if min(self.n_values, default=1) < 1:
            raise ValueError("n values must be at least 1")
        points = []
        skipped = []
        for t in self.types:
            cox = coxeter_number(t)
            primes = (
                list(self.explicit_primes)
                if self.explicit_primes
                else smallest_primes_above(cox, self.primes_per_type)
            )
            for p in primes:
                if p <= cox:
                    skipped.append(
                        {"type": str(t), "p": p, "reason": f"p <= Cox = {cox}"}
                    )
                    continue
                for fexp in self.q_exponents:
                    for n in self.n_values:
                        points.append((t, p, p**fexp, n))
        return points, skipped


def sweep_point(t: RootSystemType, p: int, q: int, n: int) -> dict:
    t0 = time.monotonic()
    try:
        datum = build_generic_element(t, None, p, q, n)  # raises unless it verifies
        # a twist of a generic datum is generic (proved at twist_datum);
        # each call certifies the window inequality, raising if it fails
        m_max = n // 2 + 1
        for texp in range(m_max):
            i = p**texp
            for unit in (1, max(2, p - 1)):
                if i * unit < p**m_max:
                    twist_datum(datum, i * unit, m_max)
        case, ok, err = datum.case, True, ""
    except Exception as exc:  # surface construction failures as rows
        ok, case, err = False, "error", f"{type(exc).__name__}: {exc}"
    ms = int((time.monotonic() - t0) * 1000)
    return {
        "type": str(t),
        "p": p,
        "q": q,
        "n": n,
        "case": case,
        "pass": bool(ok),
        "error": err,
        "_ms": ms,
    }


def run_sweep(config: SweepConfig) -> dict:
    points, skipped = config.grid()
    if not points:
        raise ValueError("empty sweep grid")
    rows = [sweep_point(*pt) for pt in points]
    rows.sort(key=lambda r: (r["type"], r["p"], r["q"], r["n"]))
    timings = {f'{r["type"]}/p{r["p"]}/q{r["q"]}/n{r["n"]}': r.pop("_ms") for r in rows}
    report = {
        "rows": rows,
        "skipped": skipped,
        "total": len(rows),
        "failures": sum(1 for r in rows if not r["pass"]),
    }
    return {"report": report, "timings": timings}


def report_to_json(report: dict) -> str:
    # timing data stays out of the serialized report so that reruns
    # produce byte-identical files
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def report_to_text(report: dict, timings: dict) -> str:
    lines = [f"{'type':<5} {'p':>4} {'q':>6} {'n':>2} {'case':<12} {'ok':<4} ms"]
    for r in report["rows"]:
        key = f'{r["type"]}/p{r["p"]}/q{r["q"]}/n{r["n"]}'
        lines.append(
            f'{r["type"]:<5} {r["p"]:>4} {r["q"]:>6} {r["n"]:>2} '
            f'{r["case"]:<12} {"pass" if r["pass"] else "FAIL":<4} {timings.get(key, 0)}'
        )
    for s in report["skipped"]:
        lines.append(f'{s["type"]:<5} {s["p"]:>4} skipped: {s["reason"]}')
    lines.append(f'total {report["total"]}, failures {report["failures"]}')
    return "\n".join(lines) + "\n"
