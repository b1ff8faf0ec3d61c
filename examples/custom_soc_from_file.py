"""Design a TAM for your own SOC described in a plain-text .soc file.

Run with::

    python examples/custom_soc_from_file.py

Shows the file-driven workflow a downstream user would adopt: describe the
system in the ``.soc`` format (no Python required), then search the full
architecture space — every width distribution of a pin budget, under all
three timing models — and report the best design per model.
"""

import tempfile
from pathlib import Path

from repro.api import SolvePolicy, design_best_architecture, load_soc

SOC_TEXT = """\
# A hypothetical set-top-box SOC: CPU, DSP, two memories, peripherals.
soc settop
die 12 12
powerbudget 800

core cpu    inputs=64 outputs=64 flipflops=2200 gates=30000 \\
            patterns=180 width=32 power=640 activity=0.5
core dsp    inputs=32 outputs=32 flipflops=900  gates=12000 \\
            patterns=140 width=16 power=290 activity=0.55
core memctl inputs=40 outputs=36 flipflops=350  gates=5000  \\
            patterns=90  width=16 power=120 activity=0.6
core sram   inputs=24 outputs=16 flipflops=0    gates=2000  \\
            patterns=40  width=8  power=55  activity=0.7
core uart   inputs=12 outputs=10 flipflops=60   gates=900   \\
            patterns=55  width=4  power=25  activity=0.6
core gpio   inputs=16 outputs=16 flipflops=40   gates=600   \\
            patterns=35  width=4  power=18  activity=0.6
"""

def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "settop.soc"
        path.write_text(SOC_TEXT)
        soc = load_soc(path)

    print(soc.describe())
    print(f"\npin budget: 48 TAM wires over 3 buses; "
          f"SOC power budget {soc.power_budget:g} mW\n")

    # An unfamiliar SOC can hide hard instances: a per-solve deadline keeps
    # the sweep responsive (exhausted solves return their best incumbent).
    policy = SolvePolicy(deadline=60.0)
    for timing in ("fixed", "serial", "flexible"):
        sweep = design_best_architecture(
            soc, total_width=48, num_buses=3,
            timing=timing, power_budget=soc.power_budget,
            policy=policy,
        )
        if sweep.best is None:
            print(f"{timing:>9}: no feasible width distribution "
                  f"({sweep.infeasible}/{sweep.evaluated} infeasible)")
            continue
        best = sweep.best
        print(f"{timing:>9}: T* = {best.makespan:7.0f} cycles on {best.arch}  "
              f"({sweep.evaluated - sweep.infeasible} solved, "
              f"{sweep.pruned} pruned ({sweep.dominated} by dominance), "
              f"{sweep.infeasible} infeasible, "
              f"{sweep.wall_time:.1f}s)")
        for bus, names in best.assignment.groups().items():
            print(f"           bus {bus} (w={best.arch.width_of(bus)}): {', '.join(names) or '-'}")
    print("\nNote the model ordering: fixed (rigid interfaces) can only get"
          "\nslower than serial (width adaptation), which can only get slower"
          "\nthan flexible (full wrapper redesign per bus).")


if __name__ == "__main__":
    main()
