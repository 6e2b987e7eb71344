import hypothesis
import pytest
import sympy

hypothesis.settings.register_profile(
    "det", derandomize=True, max_examples=60, deadline=None
)
hypothesis.settings.load_profile("det")


@pytest.fixture(scope="session")
def trace_zero_battery():
    """(ext, e, witnesses) for every prime power q and degree n >= 2 with
    q^n <= 10^6 and p not dividing n: e is the trace-zero generator, and
    witnesses lists every nonzero trace-zero element of full degree when
    q^n <= 10^4 (None above that).  Shared by the ffield test and
    acceptance criterion 06, which assert on it separately."""
    from forge.ffield import build_extension
    from oracles import field_elements

    rows = []
    for q in range(2, 1001):
        fac = sympy.factorint(q)
        if len(fac) != 1:
            continue
        p, f = next(iter(fac.items()))
        n = 2
        while q**n <= 10**6:
            if n % p:
                ext = build_extension(int(p), int(f), n)
                e = ext.find_trace_zero_generator()
                witnesses = None
                if ext.q**n <= 10**4:
                    witnesses = [
                        a
                        for a in field_elements(ext)
                        if not ext.is_zero(a)
                        and ext.is_zero(ext.trace(a))
                        and ext.minimal_polynomial_degree(a) == n
                    ]
                rows.append((ext, e, witnesses))
            n += 1
    return rows
