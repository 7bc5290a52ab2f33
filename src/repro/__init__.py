"""repro -- reproduction of Bani-Mohammad et al., IPDPS 2008.

"The Effect of Real Workloads and Stochastic Workloads on the Performance
of Allocation and Scheduling Algorithms in 2D Mesh Multicomputers."

Public API tour:

>>> from repro import SimConfig, Simulator, make_allocator, make_scheduler
>>> from repro.workload import StochasticWorkload
>>> cfg = SimConfig(jobs=50)
>>> sim = Simulator(
...     cfg,
...     make_allocator("GABL", cfg.width, cfg.length),
...     make_scheduler("FCFS"),
...     StochasticWorkload(cfg, load=0.01, sides="uniform"),
... )
>>> result = sim.run()
>>> result.completed_jobs
50

Higher-level entry points live in :mod:`repro.experiments`
(``run_figure("fig3")`` regenerates a paper figure's data) and the CLI
(``python -m repro fig3``).
"""

from repro.alloc import (
    Allocation,
    Allocator,
    BestFitAllocator,
    FirstFitAllocator,
    GABLAllocator,
    MBSAllocator,
    PagingAllocator,
    RandomAllocator,
    make_allocator,
)
from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.hooks import SimObserver, TrajectoryObserver
from repro.core.job import Job
from repro.core.metrics import RunResult
from repro.core.simulator import Simulator
from repro.mesh import Coord, MeshGrid, SubMesh
from repro.sched import FCFSScheduler, SSDScheduler, make_scheduler

__version__ = "1.21.0"

__all__ = [
    "Allocation",
    "Allocator",
    "BestFitAllocator",
    "FirstFitAllocator",
    "GABLAllocator",
    "MBSAllocator",
    "PagingAllocator",
    "RandomAllocator",
    "make_allocator",
    "PAPER_CONFIG",
    "SimConfig",
    "Job",
    "RunResult",
    "SimObserver",
    "Simulator",
    "TrajectoryObserver",
    "Coord",
    "MeshGrid",
    "SubMesh",
    "FCFSScheduler",
    "SSDScheduler",
    "make_scheduler",
    "__version__",
]
