"""One workload process: import the CLI, then run passes of a command list.

Started by run.py with a single JSON argument.  Prints one JSON line on its
own stdout when it ends; the rsl reports go to in-memory buffers.

With ``"mode": "setup"`` it stops once ``rankstability.cli`` is imported and
its parser built, and reports that set-up time.  With ``"mode": "run"`` it
also runs passes: a warm-up pass, then timed passes until ``seconds`` have
gone by, the warm-up included.  With ``"trace": 1`` it spends half the time
untraced and half traced, and writes the spans out once, at the end.
"""

import sys

sys.dont_write_bytecode = True

# Only what rankstability.cli imports itself comes before SETUP_S, so set-up
# time is what an rsl launch pays; the worker's own imports come after.
import json  # noqa: E402
import time  # noqa: E402

SPEC = json.loads(sys.argv[1])

from rankstability import cli  # noqa: E402

cli.build_parser()
SETUP_S = time.monotonic() - SPEC["launched"]

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402


def normalise(text: str):
    """(report["pass"], sha256 of the output with the report's timing removed).

    The report is the indented JSON document that starts at a line "{"; any
    JSON lines before it and CSV rows after it are kept in the digest.
    """
    start = 0 if text.startswith("{\n") else text.index("\n{\n") + 1
    report, end = json.JSONDecoder().raw_decode(text, start)
    report.pop("timing")
    canonical = text[:start] + json.dumps(report, sort_keys=True, indent=2) + text[end:]
    return report.get("pass") is True, hashlib.sha256(canonical.encode()).hexdigest()


def run_pass(commands):
    """Run each command once; return (seconds, raw outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a failed case, not a benchmark crash
            rc = f"{type(exc).__name__}: {exc}"
        outcomes.append((rc, buf.getvalue(), err.getvalue()))
    return time.perf_counter() - start, outcomes


def check(outcomes):
    """One record per command: exit code, report pass flag, output digest."""
    records = []
    for rc, out, err in outcomes:
        try:
            passed, digest = normalise(out)
        except (ValueError, KeyError) as exc:
            passed, digest = False, f"unparsable report: {exc}"
        records.append({"rc": rc, "pass": passed, "digest": digest, "stderr": err[-500:]})
    return records


def run_phase(commands, seconds, tracer=None):
    """Timed passes until `seconds` have gone by since the phase began; at
    least three.  Untraced, a warm-up pass comes first: it counts against
    the time but not among the timed passes.  Traced, the span index range
    of each pass is returned too."""
    deadline = time.monotonic() + seconds
    walls, checks, bounds = [], [], []
    if tracer is None:
        _, outcomes = run_pass(commands)
        checks.append(check(outcomes))
    while len(walls) < 3 or time.monotonic() < deadline:
        first = len(tracer.spans) if tracer else 0
        wall, outcomes = run_pass(commands)
        if tracer:
            bounds.append((first, len(tracer.spans)))
        walls.append(wall)
        checks.append(check(outcomes))
    return walls, checks, bounds


def main():
    if SPEC["mode"] == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return
    commands, seconds = SPEC["commands"], SPEC["seconds"]
    result = {"setup_s": SETUP_S}
    if not SPEC["trace"]:
        result["walls"], result["checks"], _ = run_phase(commands, seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from tracer import Tracer

        result["walls"], result["checks"], _ = run_phase(commands, seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = run_phase(commands, seconds / 2, tracer)
        result["traced_walls"], result["traced_checks"], result["pass_spans"] = traced
        with open(SPEC["spans_path"], "w") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
