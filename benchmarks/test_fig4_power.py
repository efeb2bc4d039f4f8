"""Fig. 4a/4b — power per node and total energy by workload (§V).

More updates mean more power per node (Fig. 4a ordering A > B > C at
high client counts) and, because update-heavy runs take far longer for
the same op count, workload A consumes ≈4.9x the total energy of
read-only at 90 clients (Fig. 4b).
"""

from repro.experiments.registry import tables


def test_fig4_power_and_energy(run_once, scale):
    power, energy = run_once(tables, "fig4", scale)
    watts = {r.label: r.measured for r in power.rows}

    # Workload A's power curve tracks the paper closely (89–101 W vs the
    # paper's 90–110 W) and rises with the client count.
    a_series = [watts[f"workload A / {c} clients"] for c in (10, 30, 60, 90)]
    assert a_series == sorted(a_series)
    assert abs(a_series[0] - 90.0) < 8.0
    # Known deviation (EXPERIMENTS.md): the paper's Fig. 4a shows C at
    # 82–93 W even at 4.5 clients/server, which contradicts its own
    # Table I (4–5 clients ≈ 90 % CPU ⇒ ≈120 W).  Our model follows
    # Table I, so C saturates high; we only require C to rise with load.
    c_series = [watts[f"workload C / {c} clients"] for c in (10, 30, 60, 90)]
    assert c_series == sorted(c_series)

    ratios = {r.label: r.measured for r in energy.rows}
    # Workload A burns several times the energy of C for the same ops.
    assert ratios["workload A energy ratio vs C"] > 2.5
    # Workload B costs more than C but far less than A.
    assert 1.0 <= ratios["workload B energy ratio vs C"] < \
        ratios["workload A energy ratio vs C"]
