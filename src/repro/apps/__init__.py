"""The five scientific applications of the paper's Section V, as mini-apps.

Each application exists at two layers:

* a **workload model** (subclass of :class:`repro.apps.base.AppModel`):
  per-time-step flops, memory traffic and communication pattern of each
  phase, evaluated against the machine/toolchain/network models to produce
  the paper's strong-scaling figures at full 192-node scale;
* a **mini-app** — a real numerical program built on
  :mod:`repro.kernels` and runnable under the simulated MPI at small scale
  (see ``examples/``), validating that the workload model's structure
  matches an executable implementation.  The mini-apps live in the
  ``repro.apps.miniapp*`` submodules and are not re-exported here, so
  pricing a workload model never loads the kernels or scipy.

Applications: Alya (FEM multi-physics), NEMO (ocean), Gromacs (molecular
dynamics), OpenIFS (spectral NWP), WRF (mesoscale NWP).
"""

from repro.apps.base import AppModel, AppPoint, CommOp, PhaseWork, StepTiming
from repro.apps.alya import AlyaModel
from repro.apps.nemo import NemoModel
from repro.apps.gromacs import GromacsModel
from repro.apps.openifs import OpenIFSModel
from repro.apps.wrf import WRFModel
from repro.apps.inputs import INPUT_SETS, get_input, inputs_for

ALL_APPS = {
    "alya": AlyaModel,
    "nemo": NemoModel,
    "gromacs": GromacsModel,
    "openifs": OpenIFSModel,
    "wrf": WRFModel,
}


def get_app(name: str) -> AppModel:
    """Instantiate an application model by (case-insensitive) name."""
    key = name.lower()
    if key not in ALL_APPS:
        raise KeyError(f"unknown application {name!r}; choose from {sorted(ALL_APPS)}")
    return ALL_APPS[key]()


__all__ = [
    "AppModel",
    "AppPoint",
    "CommOp",
    "PhaseWork",
    "StepTiming",
    "AlyaModel",
    "NemoModel",
    "GromacsModel",
    "OpenIFSModel",
    "WRFModel",
    "ALL_APPS",
    "get_app",
    "INPUT_SETS",
    "get_input",
    "inputs_for",
]
