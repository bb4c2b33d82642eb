"""Verdict gates: an operation whose output is wrong counts as failed.

Each gate takes what an operation produced and returns the operation's
deterministic work counters, or raises :class:`GateError` naming the
mismatch.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping

#: certificates ``repro verify --all`` runs over the bundled catalogue
VERIFY_CHECKS = 21

_STORE_LINE = re.compile(r"^store: (\d+) hits, (\d+) misses, (\d+) puts",
                         re.MULTILINE)
_LINT_LINE = re.compile(
    r"^(\d+) target\(s\): (\d+) error\(s\), .*?(\d+) proven fact\(s\)",
    re.MULTILINE,
)


class GateError(AssertionError):
    """An operation's output did not match its expected verdict."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def store_counters(stdout: str) -> Dict[str, int]:
    """``store: H hits, M misses, P puts`` -> counters (empty if absent)."""
    match = _STORE_LINE.search(stdout)
    if match is None:
        return {}
    hits, misses, puts = (int(g) for g in match.groups())
    return {"store_hits": hits, "store_misses": misses, "store_puts": puts}


def verify_gate(returncode: int, stdout: str) -> Dict[str, int]:
    """``repro verify --all``: exit 0, exactly :data:`VERIFY_CHECKS`
    ``[PASS]`` lines, no ``[FAIL]`` line, ``all checks passed``."""
    lines = stdout.splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    failed = sum("[FAIL]" in line for line in lines)
    _require(returncode == 0, f"verify exited {returncode}")
    _require(failed == 0, f"verify printed {failed} [FAIL] line(s)")
    _require(passed == VERIFY_CHECKS,
             f"verify printed {passed} [PASS] lines, not {VERIFY_CHECKS}")
    _require("all checks passed" in lines, "verify: no 'all checks passed'")
    counters = {"checks": passed}
    counters.update(store_counters(stdout))
    return counters


def lint_gate(returncode: int, stdout: str) -> Dict[str, int]:
    """``repro lint --all``: exit 0 and ``0 error(s)`` in the summary."""
    _require(returncode == 0, f"lint exited {returncode}")
    match = _LINT_LINE.search(stdout)
    _require(match is not None, "lint printed no summary line")
    targets, errors, proven = (int(g) for g in match.groups())
    _require(errors == 0, f"lint reported {errors} error(s)")
    counters = {"lint_targets": targets, "proven_facts": proven}
    counters.update(store_counters(stdout))
    return counters


def help_gate(returncode: int, stdout: str) -> Dict[str, int]:
    """``repro --help``: exit 0 and the usage line."""
    _require(returncode == 0, f"--help exited {returncode}")
    _require(stdout.startswith("usage: repro"), "--help printed no usage")
    return {}


def census_gate(name: str, states: int, expected: int) -> None:
    _require(states == expected,
             f"{name} census counted {states} states, not {expected}")


def syndrome_gate(syndrome: int, expected: int) -> None:
    _require(syndrome == expected,
             f"ingest syndrome {syndrome:#x} != bank syndrome {expected:#x}")


def strip_wall(summary: Mapping) -> Dict:
    """A campaign summary without its wall-clock fields."""
    return {k: v for k, v in summary.items() if not k.startswith("wall")}


def completed_gate(summary: Mapping, trials: int) -> None:
    """A campaign completed all of its trials."""
    _require(summary.get("completed") == trials,
             f"campaign completed {summary.get('completed')} of {trials}")


def campaign_gate(distributed: Mapping, in_process: Mapping,
                  trials: int) -> None:
    """The queue's summary equals the in-process one for the same seeds."""
    completed_gate(distributed, trials)
    _require(strip_wall(distributed) == strip_wall(in_process),
             "distributed campaign summary differs from in-process")
