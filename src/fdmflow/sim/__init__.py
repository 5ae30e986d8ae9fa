"""Multi-level deterministic simulation and trace comparison."""

from .level0 import Level0Sim
from .trace import PortSetMismatch, Stimulus, Trace, Verdict, compare_traces

__all__ = ["Level0Sim", "PortSetMismatch", "Stimulus", "Trace", "Verdict",
           "compare_traces"]
