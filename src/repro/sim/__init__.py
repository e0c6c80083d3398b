"""Simulation drivers: single runs, the paper's artifacts, parameter sweeps.

:mod:`repro.sim.engine` turns a :class:`SimulationSpec` into a run.
:mod:`repro.sim.paper_results` (Table 6, Figure 4) and
:mod:`repro.sim.sweeps` (Figures 5-7) build on :mod:`repro.experiments`,
which itself imports the engine, so import them from their modules.
"""

from repro.sim.engine import SimulationSpec, run_spec

__all__ = ["SimulationSpec", "run_spec"]
