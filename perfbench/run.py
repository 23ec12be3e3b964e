"""rankstability benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

Runs each workload in its own child process, one after another, through
``rankstability.cli.main``.  Checks every report (exit code 0, "pass": true,
identical output on every pass and equal to the recorded digest wherever
one applies), prints each metric by name with its unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.  See
NOTES.md for the metric list and why each workload is there.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from tracer import PER_LAYER, derive  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, commands  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROBES = 40  # extra set-up-only processes per run; setup_s is a median
RUN_LIMIT = 170  # seconds per workload, probes included; a run must end within 180
PINNED_ENV = {"RSL_THREADS": "1", "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def child_env() -> dict:
    return {**os.environ, **PINNED_ENV, "PYTHONPATH": SRC}


def spawn(spec: dict, deadline: float) -> dict:
    """Start a worker, wait for it (killing it at `deadline`), return its JSON line."""
    spec = dict(spec, launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, "-B", os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker still running after {RUN_LIMIT} s") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def percentile_line(values) -> str:
    """Median, plus the highest of p75/p90/p99 with at least 10 samples beyond it."""
    n = len(values)
    text = f"median of {n}"
    for q in (99, 90, 75):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            text += f", p{q} {cut:.6g}"
            break
    return text


def expected_digests(name: str, seed: int, smoke: bool) -> list:
    """The recorded digest of each command of `name` at `seed`, or None.

    A command without ``{seed}`` does the same work at every seed, so its
    digest applies at every seed; a seeded command's only at DEFAULT_SEED.
    """
    with open(DIGESTS) as fh:
        table = json.load(fh)
    templates = WORKLOADS[name]["smoke" if smoke else "full"]
    out = []
    for template, argv in zip(templates, commands(name, seed, smoke)):
        if "{seed}" in template and seed != DEFAULT_SEED:
            out.append(None)
            continue
        key = " ".join(argv)
        if key not in table:
            raise BenchError(f"no recorded digest for: {key}")
        out.append(table[key])
    return out


def failures(checks, expected) -> list:
    """Failed cases over all passes: a bad exit, a failing report, or output drift.

    The reference is the first pass, which is untraced, so traced passes are
    held to the untraced output too.  `expected` holds the recorded digest
    of each command, or None where none applies.
    """
    reference = [r["digest"] for r in checks[0]]
    bad = []
    for p, records in enumerate(checks):
        for c, rec in enumerate(records):
            why = []
            if rec["rc"] != 0:
                why.append(f"exit {rec['rc']}")
            if not rec["pass"]:
                why.append('report lacks "pass": true')
            if rec["digest"] != reference[c]:
                why.append("output differs from the first (untraced) pass")
            if expected[c] is not None and rec["digest"] != expected[c]:
                why.append("output differs from the recorded digest")
            if why:
                bad.append(f"pass {p} command {c}: {'; '.join(why)} {rec['stderr'].strip()[-200:]}")
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    cmds = commands(name, seed, smoke)
    expected = expected_digests(name, seed, smoke)
    deadline = time.monotonic() + RUN_LIMIT
    probes = 2 if smoke else SETUP_PROBES
    setups = [spawn({"mode": "setup"}, deadline)["setup_s"] for _ in range(probes)]
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.json")
    res = spawn({"mode": "run", "commands": cmds, "seconds": seconds, "trace": trace,
                 "spans_path": spans_path}, deadline)
    setups.append(res["setup_s"])

    checks = res["checks"] + res.get("traced_checks", [])
    bad = failures(checks, expected)
    out = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "commands": [" ".join(c) for c in cmds],
        "attempted": sum(len(r) for r in checks), "failed": len(bad), "failures": bad,
        "passes": len(res["walls"]), "setup_samples": setups, "wall_samples": res["walls"],
    }
    wall = statistics.median(res["walls"])
    if not trace:
        out["metrics"] = {
            "wall_s": (wall, "s", percentile_line(res["walls"])),
            "setup_s": (statistics.median(setups), "s", percentile_line(setups)),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", "one workload process"),
        }
    else:
        with open(spans_path) as fh:
            spans = json.load(fh)
        layer = derive(spans, res["pass_spans"])
        layer["trace.overhead_ratio"] = statistics.median(res["traced_walls"]) / wall
        units = {m: u for m, u, _ in PER_LAYER}
        out["metrics"] = {
            m: (v, units[m], f"{len(res['traced_walls'])} traced passes") for m, v in layer.items()
        }
        for metric, lines in loc().items():
            out["metrics"][metric] = (lines, "lines", "static count")
        out["traced_wall_samples"] = res["traced_walls"]
    return out


# Modules whose line counts are reported one by one; loc.src counts every
# module of the package, so a module added later shows there.
LOC_MODULES = ("__init__", "cli", "compress", "errors", "exactfield", "liealg", "prng",
               "rankmetric", "rolli", "verma")
LOC_METRICS = [(f"loc.{m}", "lines", "lower") for m in ("src", *LOC_MODULES)]


def loc() -> dict:
    """Line counts of src/rankstability/*.py."""
    pkg = os.path.join(SRC, "rankstability")
    counts = {}
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                counts[fname[:-3]] = len(fh.read().splitlines())
    out = {"loc.src": sum(counts.values())}
    out.update((f"loc.{m}", counts.get(m, 0)) for m in LOC_MODULES)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rankstability", "cli.py")):
        print(f"error: no rankstability sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    stamp = {
        "git_sha": git_sha(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "commands": {n: [" ".join(c) for c in commands(n, args.seed, args.smoke)] for n in names},
        "env": PINNED_ENV,
    }
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, args.smoke))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    tag = "all" if len(names) > 1 else names[0]
    size = "-smoke" if args.smoke else ""
    path = os.path.join(OUT_DIR, f"{tag}-seed{args.seed}-trace{args.trace}{size}.json")
    with open(path, "w") as fh:
        json.dump({"stamp": stamp, "results": results}, fh, indent=2)
        fh.write("\n")

    metrics = {}
    for r in results:
        print(f"== {r['workload']} (seed {r['seed']}, {r['passes']} untraced passes)")
        for cmd in r["commands"]:
            print(f"   rsl {cmd}")
        for m, (value, unit, note) in r["metrics"].items():
            print(f"   {m} = {value:.6g} {unit}  ({note})")
            key = m if len(results) == 1 else f"{r['workload']}.{m}"
            metrics[key] = {"value": value, "unit": unit}
        ratio = r["failed"] / r["attempted"]
        print(f"   failed_ratio = {ratio:.6g} ratio  ({r['failed']} failed of {r['attempted']} attempted cases)")
        for line in r["failures"]:
            print(f"   FAILED {line}")
    print(f"results written to {os.path.relpath(path, ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
