"""The verdict gates reject doctored output."""

import pytest

from perfbench import gates

VERIFY_OK = "\n".join(
    ["== memory_access: memory access ladder"]
    + [f"[PASS] check {i}\n  detail" for i in range(gates.VERIFY_CHECKS)]
    + ["", "all checks passed", "store: 23 hits, 0 misses, 0 puts"]
) + "\n"

LINT_OK = ("tmr: ok\n21 target(s): 0 error(s), 1 warning(s), 0 info, "
           "0 suppressed, 210 proven fact(s)\n")


def test_verify_gate_accepts_and_counts():
    assert gates.verify_gate(0, VERIFY_OK) == {
        "checks": gates.VERIFY_CHECKS, "store_hits": 23,
        "store_misses": 0, "store_puts": 0}


@pytest.mark.parametrize("returncode, stdout", [
    (0, VERIFY_OK.replace("[PASS] check 3", "[FAIL] check 3", 1)),
    (0, VERIFY_OK.replace("[PASS] check 3\n", "", 1)),
    (0, VERIFY_OK + "[PASS] extra\n"),
    (0, VERIFY_OK.replace("all checks passed", "1 check(s) FAILED")),
    (1, VERIFY_OK),
])
def test_verify_gate_rejects(returncode, stdout):
    with pytest.raises(gates.GateError):
        gates.verify_gate(returncode, stdout)


def test_lint_gate():
    assert gates.lint_gate(0, LINT_OK) == {
        "lint_targets": 21, "proven_facts": 210}
    with pytest.raises(gates.GateError):
        gates.lint_gate(0, LINT_OK.replace("0 error(s)", "2 error(s)"))
    with pytest.raises(gates.GateError):
        gates.lint_gate(1, LINT_OK)


def test_census_gate_rejects_a_wrong_count():
    gates.census_gate("token ring", 7 ** 8, 7 ** 8)
    with pytest.raises(gates.GateError):
        gates.census_gate("token ring", 7 ** 8 - 1, 7 ** 8)
    with pytest.raises(gates.GateError):
        gates.census_gate("byzantine", 2 * 3 ** 11 + 1, 2 * 3 ** 11)


def test_campaign_gate_ignores_wall_fields_only():
    base = {"completed": 4, "verdict": "masking", "wall_s": 1.0}
    gates.campaign_gate(dict(base, wall_s=2.0), base, 4)
    with pytest.raises(gates.GateError):
        gates.campaign_gate(dict(base, verdict="nonmasking"), base, 4)
    with pytest.raises(gates.GateError):
        gates.campaign_gate(base, base, 5)


def test_completed_gate_rejects_missing_trials():
    gates.completed_gate({"completed": 4}, 4)
    with pytest.raises(gates.GateError):
        gates.completed_gate({"completed": 3}, 4)


def test_syndrome_gate():
    gates.syndrome_gate(0b101, 0b101)
    with pytest.raises(gates.GateError):
        gates.syndrome_gate(0b101, 0b100)
