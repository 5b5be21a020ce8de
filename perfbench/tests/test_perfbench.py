"""Tests of the benchmark itself: smoke runs, the output checker, and the missing-source exit.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from hostclock import REFERENCE, HostClock  # noqa: E402
from workloads import WORKLOADS, Call, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_named_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for spec in named:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[:1] == [spec["name"]] and line.endswith(spec["unit"])
                   for line in lines)
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)
    context = json.loads(lines[-2])["context"]
    assert context["seed"] == 3 and context["csv_sha256"]


def test_same_seed_gives_same_calls_and_other_seeds_or_passes_differ():
    first = [Workload(w, 5).calls(j) for w in WORKLOADS for j in range(2)]
    again = [Workload(w, 5).calls(j) for w in WORKLOADS for j in range(2)]
    other = [Workload(w, 6).calls(j) for w in WORKLOADS for j in range(2)]
    assert first == again
    assert first != other
    for w in WORKLOADS:  # passes share no call
        assert not set(Workload(w, 5).calls(0)) & set(Workload(w, 5).calls(1))


def test_host_clock_takes_out_probe_time_and_host_speed():
    clock = HostClock()
    clock.times = [float(t) for t in range(20)]
    clock.seconds = [2 * REFERENCE] * 10 + [4 * REFERENCE] * 10  # half, then quarter speed
    clock.spent = [2 * s for s in clock.seconds]
    assert clock.scaled(0.0, 10.0) == pytest.approx((10.0 - 40 * REFERENCE) / 2)
    assert clock.scaled(5.0, 15.0) == pytest.approx((10.0 - 60 * REFERENCE) * (5 / 2 + 5 / 4) / 10)
    # no sample inside: the host speed comes from the nearest samples, no probe time is removed
    assert clock.scaled(2.5, 3.0) == pytest.approx(0.5 / 2)


def _cli_csv(call):
    from fblfas import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(call.argv()) == 0
    return out.getvalue()


def _corrupt(text, row, column, value):
    lines = text.splitlines()
    header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    column = lines[header_at].split(",").index(column)
    cells = lines[header_at + 1 + row].split(",")
    cells[column] = value(float(cells[column]))
    lines[header_at + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


OUTAGE = Call("op-vs-u", (("ports", "10"), ("users", "2,9"), ("snr-db", "-35"),
                          ("gamma-th", "0.0001"), ("blocklength", "5"), ("sigma2", "2"),
                          ("mc-samples", "4000"), ("seed", "7")))
BLER = Call("bler-vs-snr", (("ports", "5"), ("snr-db", "12,24"), ("users", "10"),
                            ("blocklength", "5"), ("mrc-trials", "2000"), ("seed", "7")))


@pytest.mark.parametrize("call, row, column, value, reason", [
    (OUTAGE, 0, "fas_N10", lambda v: "1.5", "outside [0, 1]"),
    (OUTAGE, 1, "mc_N10", lambda v: "nan", "not finite"),
    (OUTAGE, 0, "mrc_L1", lambda v: repr(v * 1.001), "mrc_L1 outage differs from closed form"),
    (OUTAGE, 1, "mrc_L5", lambda v: "0.9", "more MRC branches did worse"),
    (OUTAGE, 0, "fas_N10", lambda v: repr(v + 0.2), "analytic outside Monte Carlo band"),
    (BLER, 0, "fas_N5", lambda v: "0", "fas bound not monotone in snr_db"),
])
def test_checker_counts_a_corrupted_row_as_failed(call, row, column, value, reason):
    text = _cli_csv(call)
    clean = checks.check_call(call, 0, text, [])
    assert clean.failed == 0 and clean.attempted > 0, clean.reasons
    broken = checks.check_call(call, 0, _corrupt(text, row, column, value), [])
    assert broken.failed >= 1
    assert broken.reasons[reason] >= 1


def test_checker_fails_every_cell_of_a_truncated_or_failed_call():
    text = _cli_csv(BLER)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    result = checks.check_call(BLER, 0, truncated, [])
    assert result.failed == result.attempted
    assert checks.check_call(BLER, 2, "", []).failed == result.attempted
    warned = checks.check_call(BLER, 0, text, ["statistical BLER integral did not converge"])
    assert warned.failed == 1


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, str(tmp_path / BENCH.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=170, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
