"""Failure detectors as instantiations of detectors (paper Section 7).

The paper notes that Chandra–Toueg failure detectors are detectors
whose detection predicate has the special form "process j is down", and
that detectors are more abstract: they concern states reached in the
execution of program and faults, not only states immediately after the
fault.

- :mod:`repro.failure_detectors.chandra_toueg` makes that observation
  mechanical: a heartbeat failure detector is model-checked to show it
  *is* a detector of its timeout predicate, that it satisfies
  completeness (crashed leads-to suspected), and that strong accuracy —
  Safeness of ``suspect detects crashed`` — is *refuted* with a
  counterexample trace (the asynchrony argument), while eventual
  accuracy (false suspicions are retracted) holds.
- :mod:`repro.failure_detectors.simulated` provides the runtime
  counterpart on :mod:`repro.sim`: heartbeat/monitor processes whose
  detection latency and false-suspicion rate the benchmarks sweep
  against timeout, loss, and jitter.
"""

from .chandra_toueg import FailureDetectorModel, build

#: names served lazily from :mod:`.simulated`, so model checking the
#: detector does not load the simulator
_SIMULATED = ("HeartbeatProcess", "MonitorProcess", "run_crash_experiment")

__all__ = [
    "FailureDetectorModel",
    "build",
    "HeartbeatProcess",
    "MonitorProcess",
    "run_crash_experiment",
]


def __getattr__(name: str):
    if name in _SIMULATED:
        from . import simulated

        return getattr(simulated, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
