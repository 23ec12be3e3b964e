"""The benchmark's own tests, at smoke sizes.  Run: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracer import EXACT_NAMES, EXACT_SUFFIXES, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench(*args, cwd=ROOT):
    """Run the benchmark command; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload, trace, cwd=ROOT, seed=1):
    code, lines = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--smoke", cwd=cwd)
    return code, json.loads(lines[-1]) if lines else None


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert per_layer == PER_LAYER + run.LOC_METRICS
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_untraced_reports_every_end_to_end_metric(workload):
    code, result = smoke(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced_counts_repeat_exactly(workload):
    runs = [smoke(workload, 1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [
        {k: v["value"] for k, v in result["metrics"].items()
         if k.endswith(EXACT_SUFFIXES) or k in EXACT_NAMES}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_every_seedless_command_has_a_recorded_digest():
    for workload in WORKLOADS:
        for smoke_size in (False, True):
            digests = run.expected_digests(workload, 2, smoke_size)
            templates = WORKLOADS[workload]["smoke" if smoke_size else "full"]
            assert [d is not None for d in digests] == ["{seed}" not in t for t in templates]
            assert all(d is not None for d in run.expected_digests(workload, 1, smoke_size))


def test_traced_run_reaches_each_workloads_layers():
    layers = {
        "sl3-truncation": "liealg.pointwise_defect.calls",
        "free-group-certify": "exactfield.kernel_basis.calls",
        "sl2-distance": "rankmetric.flexible_distance.calls",
        "small-dense-gf": "exactfield.inverse.calls",
    }
    for workload, metric in layers.items():
        _, result = smoke(workload, 1)
        assert result["metrics"][metric]["value"] > 0, (workload, metric)


def copy_tree(dest, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    copy_tree(tmp_path, with_src=False)
    code, lines = bench("--workload", "sl2-distance", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("seed", [1, 2])
def test_wrong_report_is_refused(tmp_path, seed):
    copy_tree(tmp_path)
    cli = tmp_path / "src" / "rankstability" / "cli.py"
    text = cli.read_text()
    # a wrong dimension in the sl3 defect report: still "pass": true, still exit 0
    cli.write_text(text.replace('"dim": rep.dim,\n            "defect": str(defect.value),',
                                '"dim": rep.dim + 1,\n            "defect": str(defect.value),'))
    assert cli.read_text() != text
    # the sl3 commands take no --seed, so their recorded digests hold at any seed
    code, result = smoke("sl3-truncation", 0, cwd=tmp_path, seed=seed)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0 and result["metrics"] == {}
