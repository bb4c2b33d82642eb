"""Tests for the command-line verifier."""

import io
import json
import os
import pickle
import re
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing

import pytest

import repro
from repro.cli import CATALOGUE, main


class TestList:
    def test_lists_all_entries(self):
        out = io.StringIO()
        assert main(["list"], out=out) == 0
        text = out.getvalue()
        for name in CATALOGUE:
            assert name in text


class TestVerify:
    def test_single_entry_passes(self):
        out = io.StringIO()
        assert main(["verify", "leader_election"], out=out) == 0
        text = out.getvalue()
        assert "[PASS]" in text
        assert "all checks passed" in text

    def test_multiple_entries(self):
        out = io.StringIO()
        assert main(
            ["verify", "termination_detection", "distributed_reset"], out=out
        ) == 0

    def test_unknown_entry(self):
        out = io.StringIO()
        assert main(["verify", "nonsense"], out=out) == 2
        assert "unknown catalogue entry" in out.getvalue()

    def test_no_entries(self):
        out = io.StringIO()
        assert main(["verify"], out=out) == 2

    def test_catalogue_entries_build(self):
        """Every catalogue entry constructs and exposes checks."""
        for name, entry in CATALOGUE.items():
            description, checks = entry()
            assert description and checks, name


class TestCampaign:
    def test_list_scenarios(self):
        out = io.StringIO()
        assert main(["campaign", "--list"], out=out) == 0
        text = out.getvalue()
        for name in ("token_ring", "tmr", "byzantine", "memory_access"):
            assert name in text

    def test_no_scenario_lists_and_fails(self):
        out = io.StringIO()
        assert main(["campaign"], out=out) == 2
        assert "token_ring" in out.getvalue()

    def test_unknown_scenario(self):
        out = io.StringIO()
        assert main(["campaign", "nonsense"], out=out) == 2
        assert "unknown campaign scenario" in out.getvalue()

    def test_campaign_runs_and_reports(self, tmp_path):
        out = io.StringIO()
        jsonl = tmp_path / "out.jsonl"
        code = main(
            ["campaign", "token_ring", "--trials", "3", "--seed", "0",
             "--jsonl", str(jsonl)],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "== campaign token_ring:" in text
        assert "detection latency:" in text
        assert "convergence time:" in text
        lines = jsonl.read_text().strip().splitlines()
        events = [__import__("json").loads(line) for line in lines]
        assert events[0]["event"] == "campaign_start"
        assert events[-1]["event"] == "campaign_end"
        assert sum(1 for e in events if e["event"] == "trial_end") == 3

    def test_budget_override(self):
        out = io.StringIO()
        assert main(
            ["campaign", "tmr", "--trials", "2", "--seed", "1",
             "--budget", "1"],
            out=out,
        ) == 0
        assert "masking-tolerant in 2/2 trials" in out.getvalue()


# -- start-up cost: what a fresh CLI process imports ---------------------------

#: modules a CLI call loads only when its work needs them
_HEAVY = ("numpy", "urllib.request", "repro.sim")

#: runs ``repro.cli.main(argv)`` in a fresh interpreter and reports its
#: exit code, its output and which heavy modules it left loaded
_PROBE = """
import contextlib, io, json, sys
{prelude}
from repro.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        rc = main({argv!r}, out=out)
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({{
    "rc": rc,
    "out": out.getvalue(),
    "loaded": [m for m in {heavy!r} if sys.modules.get(m) is not None],
}}))
"""


def _child(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _probe(argv, prelude: str = "") -> dict:
    return json.loads(_child(_PROBE.format(
        argv=list(argv), heavy=_HEAVY, prelude=prelude,
    )))


def _copy_store(src: str, dst: str) -> str:
    for suffix in ("", "-wal"):
        if os.path.exists(src + suffix):
            shutil.copyfile(src + suffix, dst + suffix)
    return dst


def _check_lines(text: str):
    return [line for line in text.splitlines()
            if not line.startswith("store:")]


@pytest.fixture(scope="module")
def cold_verify():
    """``verify --all`` without a store, in a fresh process."""
    result = _probe(["verify", "--all"])
    assert result["rc"] == 0, result["out"]
    return result


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store filled by ``verify --all`` and then ``lint --all``."""
    path = str(tmp_path_factory.mktemp("store") / "certs.sqlite")
    for argv in (["verify", "--all"], ["lint", "--all"]):
        assert _probe([*argv, "--store", path])["rc"] == 0
    return path


class TestImportBudget:
    """A call loads numpy, the HTTP client and the simulator only when
    its work needs them: warm replays and linting need none of them."""

    @pytest.mark.parametrize("argv", [["--help"], ["list"], ["lint", "--all"]])
    def test_cold_calls_load_no_heavy_module(self, argv):
        result = _probe(argv)
        assert result["rc"] == 0
        assert result["loaded"] == []

    @pytest.mark.parametrize("command", ["verify", "lint"])
    def test_warm_store_calls_load_no_heavy_module(
        self, command, filled_store, tmp_path
    ):
        store = _copy_store(filled_store, str(tmp_path / "warm.sqlite"))
        result = _probe([command, "--all", "--store", store])
        assert result["rc"] == 0
        assert " 0 misses" in result["out"]
        assert result["loaded"] == []

    def test_cold_verify_still_loads_numpy(self, cold_verify):
        # the columnar engine keeps running whenever numpy is importable
        assert cold_verify["loaded"] == ["numpy"]

    def test_numpy_available_does_not_import_numpy(self):
        out = _child(
            "import sys\n"
            "from repro.core import kernels\n"
            "print(kernels.numpy_available(), kernels.resolved_backend(),"
            " 'numpy' in sys.modules)\n"
        )
        assert out.split() == ["True", "numpy", "False"]


class TestNumpyFallback:
    """Without an importable numpy the pure kernels run, and print what
    the numpy kernels print."""

    def test_blocked_numpy(self, cold_verify):
        result = _probe(["verify", "--all"],
                        prelude='sys.modules["numpy"] = None')
        assert result["rc"] == 0
        assert result["loaded"] == []
        assert result["out"] == cold_verify["out"]

    def test_numpy_that_fails_to_import(self, cold_verify, tmp_path):
        broken = tmp_path / "numpy"
        broken.mkdir()
        (broken / "__init__.py").write_text(
            "raise ImportError('numpy is broken')\n"
        )
        result = _probe(["verify", "--all"],
                        prelude=f"sys.path.insert(0, {str(tmp_path)!r})")
        assert result["rc"] == 0
        assert result["loaded"] == []
        assert result["out"] == cold_verify["out"]


def _out_of_range_system_target(data):
    n = len(data["states"])
    for rows in (data["prows"], data["frows"]):
        for i, row in enumerate(rows):
            if row:
                rows[i] = ((row[0][0], n + 5),) + tuple(row[1:])
                return data
    return data


def _out_of_range_actrows_target(data):
    rows = data["rows"]
    for i, row in enumerate(rows):
        if row:
            rows[i] = (len(rows) + 5,) + tuple(row[1:])
            return data
    return data


#: structural damage that still unpickles: (artifact kind, rewrite).
#: Row damage is tested with the whole-graph entries gone, so that the
#: graphs are reassembled from the rows.
_MALFORMED = {
    "version_only": ("system", lambda data: {"v": 1}),
    "system_target_out_of_range": ("system", _out_of_range_system_target),
    "actrows_target_out_of_range": ("actrows", _out_of_range_actrows_target),
    "actrows_short": ("actrows",
                      lambda data: {**data, "rows": data["rows"][:-1]}),
}


def _store_counts(text: str) -> dict:
    """``hits``/``misses``/``puts``/``undecodable`` of a ``store:`` line."""
    line = next(l for l in text.splitlines() if l.startswith("store:"))
    counts = {"undecodable": 0}
    for number, word in re.findall(r"(\d+) (hits|misses|puts|undecodable)",
                                   line):
        counts[word] = int(number)
    return counts


class TestDamagedStore:
    """A damaged store entry is detected, recomputed and reported, and
    overwritten: the check lines equal a run without a store, and the
    next run is served warm."""

    def _assert_recomputed(self, store, cold_verify):
        damaged = _probe(["verify", "--all", "--store", store])
        assert damaged["rc"] == 0
        assert _check_lines(damaged["out"]) == _check_lines(cold_verify["out"])
        assert "undecodable entries recomputed" in damaged["out"]
        # a rejected payload served nothing: it is a miss, not a hit
        counts = _store_counts(damaged["out"])
        assert counts["misses"] >= counts["undecodable"] > 0
        healed = _probe(["verify", "--all", "--store", store])
        assert healed["rc"] == 0
        assert " 0 misses, 0 puts" in healed["out"]
        assert "undecodable" not in healed["out"]
        return counts

    def test_truncated_payloads_are_recomputed(
        self, cold_verify, filled_store, tmp_path
    ):
        store = _copy_store(filled_store, str(tmp_path / "damaged.sqlite"))
        with closing(sqlite3.connect(store)) as db:
            db.execute(
                "UPDATE artifacts SET payload = "
                "substr(payload, 1, length(payload) / 2)"
            )
            db.commit()
        counts = self._assert_recomputed(store, cold_verify)
        # with every entry undecodable the run counts exactly what
        # filling an empty store counts
        empty = _probe(
            ["verify", "--all", "--store", str(tmp_path / "empty.sqlite")]
        )
        assert counts == _store_counts(empty["out"]) | {
            "undecodable": counts["misses"]
        }


    @pytest.mark.parametrize("damage", sorted(_MALFORMED))
    def test_malformed_payloads_are_recomputed(
        self, damage, cold_verify, filled_store, tmp_path
    ):
        kind, rewrite = _MALFORMED[damage]
        store = _copy_store(filled_store, str(tmp_path / "damaged.sqlite"))
        with closing(sqlite3.connect(store)) as db:
            entries = db.execute(
                "SELECT key, payload FROM artifacts WHERE kind = ?", (kind,)
            ).fetchall()
            assert entries
            for key, payload in entries:
                db.execute(
                    "UPDATE artifacts SET payload = ? WHERE key = ?",
                    (pickle.dumps(rewrite(pickle.loads(payload))), key),
                )
            if kind == "actrows":
                db.execute("DELETE FROM artifacts WHERE kind = 'system'")
            db.commit()
        self._assert_recomputed(store, cold_verify)


class TestBrokenPipe:
    """A reader that stops early (``repro list | head -1``) ends the
    call quietly: non-zero exit, no traceback."""

    @pytest.mark.parametrize("argv", [["list"], ["verify", "--all"]],
                             ids=["list", "verify"])
    def test_closed_reader_prints_no_traceback(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        read_end, write_end = os.pipe()
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
        os.close(write_end)
        os.close(read_end)
        _, stderr = child.communicate(timeout=600)
        assert "Traceback" not in stderr
        assert child.returncode != 0
