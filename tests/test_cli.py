import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rankstability.cli import main
from rankstability.errors import BoundViolation
from rankstability.liealg import almostrep_from_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> dict:
    # JSON report is the first chunk; CSV (if any) follows after the closing brace
    depth = 0
    end = None
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                end = i + 1
                break
    report = json.loads(text[:end])
    report.pop("timing", None)
    return report


def test_verma_defect_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verma", "defect", "--algebra", "sl2", "--lambda", "1/2", "--n", "4,8"
    )
    assert code == 0
    assert "n,dim,defect,bound,pass" in out
    assert "4,5,1/5,1/2,True" in out
    assert "8,9,1/9,1/4,True" in out


def test_deterministic_output_modulo_timing(capsys):
    args = ["rolli", "certify", "--preset", "diag_involution", "--n", "6",
            "--field", "rational", "--seed", "9", "--conjugates", "2"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timing(out1) == strip_timing(out2)


def test_compress_check_json_lines(capsys):
    code, out, _ = run_cli(
        capsys, "compress", "check", "--n", "6", "--k", "4", "--trials", "2",
        "--field", "gf7", "--seed", "1"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{") and '"law"' in l and '"cases"' not in l]
    per_trial = [l for l in lines if "trial" in l]
    assert len(per_trial) == 6  # three laws per trial
    for rec in per_trial:
        assert {"n", "k", "lhs", "rhs", "pass"} <= set(rec)
        assert rec["pass"] is True


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verma", "defect"])  # missing --lambda and --n
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "verma", "defect", "--lambda", "bogus", "--n", "4")
    assert code == 2
    assert "error" in err


def test_unreadable_config_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.json")
    assert code == 2
    assert "error" in err


def test_bound_violation_reports_diagnostics(capsys, monkeypatch):
    import rankstability.cli as cli_mod

    args = cli_mod.build_parser().parse_args(
        ["rolli", "defect", "--preset", "diag_involution", "--n", "4"]
    )

    def explode(_):
        raise BoundViolation("synthetic failure", details={"matrix": "1 1 rational\n0\n"})

    monkeypatch.setattr(args, "func", explode, raising=False)
    monkeypatch.setattr(cli_mod, "build_parser", lambda: _FakeParser(args))
    code = cli_mod.main([])
    captured = capsys.readouterr()
    assert code == 3
    assert "BOUND VIOLATION" in captured.err
    assert "matrix" in captured.err


class _FakeParser:
    def __init__(self, args):
        self._args = args

    def parse_args(self, argv):
        return self._args


def test_sweep_runs_batch(tmp_path, capsys):
    config = {
        "runs": [
            {"command": "verma.defect", "options": {"lam": "1/2", "n": "4"}},
            {"command": "rolli.defect", "options": {"preset": "diag_involution", "n": 4}},
        ]
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    report = strip_timing(out)
    assert report["pass"] is True
    assert len(report["runs"]) == 2
    assert report["config"]["echo"] == config


def test_out_prefix_writes_files(tmp_path, capsys):
    prefix = str(tmp_path / "report")
    code, out, _ = run_cli(
        capsys, "--out", prefix, "verma", "defect", "--lambda", "1/2", "--n", "4"
    )
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["pass"] is True
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "n,dim,defect,bound,pass"


def test_unwritable_out_prefix_is_usage_error(tmp_path, capsys):
    prefix = str(tmp_path / "missing" / "report")
    code, out, err = run_cli(
        capsys, "--out", prefix, "verma", "defect", "--lambda", "1/2", "--n", "4"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_closed_stdout_exits_quietly():
    # about 150 KB of JSON lines, more than a pipe holds, so writing outlives the reader
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "rankstability.cli", "compress", "check", "--n", "2", "--k", "1",
         "--trials", "200", "--field", "gf2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["verma", "defect", "--lambda", "1/2", "--n", "4,8"],
    ["verma", "casimir", "--algebra", "sl3", "--lambda", "1/2,1/3"],
    ["compress", "check", "--n", "4", "--k", "2", "--trials", "2", "--seed", "1"],
], ids=["defect", "casimir", "compress"])
def test_out_files_hold_what_stdout_prints(tmp_path, capsys, argv):
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    prefix = str(tmp_path / "report")
    code, out, _ = run_cli(capsys, "--out", prefix, *argv)
    assert code == 0
    lines_end = printed.index("{\n")  # the per-trial JSON lines of compress check
    report_end = printed.index("\n}\n") + 3
    assert out == printed[:lines_end] + f"wrote {prefix}.json" + (
        f" and {prefix}.csv\n" if report_end < len(printed) else "\n")
    written = (tmp_path / "report.json").read_text()
    report = json.loads(printed[lines_end:report_end])
    report["timing"] = json.loads(written)["timing"]
    assert written == json.dumps(report, sort_keys=True, indent=2) + "\n"
    csv_path = tmp_path / "report.csv"
    if report_end < len(printed):
        assert csv_path.read_bytes().decode() == printed[report_end:]
    else:
        assert not csv_path.exists()


def test_verma_build_serialization_roundtrip(tmp_path, capsys):
    rep_path = str(tmp_path / "rep.txt")
    code, out, _ = run_cli(
        capsys, "verma", "build", "--lambda", "1/2", "--n", "3", "--rep-out", rep_path
    )
    assert code == 0
    rep = almostrep_from_text(Path(rep_path).read_text())
    assert rep.dim == 4
    assert rep.meta["n"] == 3


def test_separate_linked_weights_fails(capsys):
    # chi(1/2) = chi(-5/2) = 5/4, so the characters cannot separate them
    code, out, _ = run_cli(capsys, "verma", "separate", "--lambda", "1/2", "--mu=-5/2", "--n", "8")
    assert code == 3
    report = strip_timing(out)
    assert report["pass"] is False
    assert report["certificate"]["verdict"].startswith("inconclusive")


@pytest.mark.parametrize("n, code, verdict", [
    (8, 3, "bound vacuous at this n; increase n"),
    (9, 0, "certified"),
])
def test_repdist_passes_only_when_certified(capsys, n, code, verdict):
    # the sl2 bound (1 - 8/n)/6 is vacuous for n <= 8, and a vacuous bound certifies nothing
    got, out, _ = run_cli(capsys, "verma", "repdist", "--lambda", "1/2", "--n", str(n),
                          "--battery", "10", "--seed", "1")
    report = strip_timing(out)
    assert got == code
    assert report["pass"] is (code == 0)
    assert {c["verdict"] for c in report["cases"]} == {verdict}
    assert all(c["pass"] is (code == 0) for c in report["cases"])


@pytest.mark.parametrize("options, code, value", [
    (["--preset", "diag_involution", "--t", "1"], 3, "1/12"),
    (["--preset", "diag_involution", "--t", "2"], 0, "1/6"),
])
def test_witness_passes_only_above_one_over_n(capsys, options, code, value):
    # the chain's bound (c - 1/n)/6 is vacuous unless the witness value c exceeds 1/n
    got, out, _ = run_cli(capsys, "rolli", "witness", "--n", "12", *options)
    report = strip_timing(out)
    assert got == code
    assert report["witness_value"] == value
    assert report["pass"] is (code == 0)


@pytest.mark.parametrize("preset, n, code", [
    ("transvection", 2, 3),
    ("transvection", 3, 0),
    ("diag_involution", 1, 3),
    ("diag_involution", 2, 0),
])
def test_certify_passes_only_above_one_over_n(capsys, preset, n, code):
    # at c = 1/n the chain's bound (c - 1/n)/6 is 0, and a vacuous bound certifies nothing
    got, out, _ = run_cli(capsys, "rolli", "certify", "--preset", preset, "--n", str(n))
    report = strip_timing(out)
    assert got == code
    assert report["pass"] is (code == 0)
    assert all(c["pass"] is (Fraction(c["final_bound"]) > 0) for c in report["cases"])
    assert all(c["pass"] is (code == 0) for c in report["cases"])


@pytest.mark.parametrize("n, code", [(3, 3), (4, 0)])
def test_defect_passes_only_below_one(capsys, n, code):
    # a normalized rank is at most 1, so the bound 3/n cannot fail for n <= 3
    got, out, _ = run_cli(capsys, "rolli", "defect", "--preset", "transvection", "--n", str(n))
    report = strip_timing(out)
    assert got == code
    assert report["bound"] == str(Fraction(3, n))
    assert report["pass"] is (code == 0)


def test_weyl_scan_reports_no_verdict(capsys):
    # the twist scan claims nothing, so its report carries no pass key and exits 0
    got, out, _ = run_cli(capsys, "verma", "weyl", "--lambda", "1/2", "--n", "8",
                          "--trials", "5", "--seed", "1")
    report = strip_timing(out)
    assert got == 0
    assert "pass" not in report
    assert set(report) == {"config", "scan"}


def run_sweep(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return run_cli(capsys, "sweep", "--config", str(path))


@pytest.mark.parametrize(
    "config",
    [
        {"runs": [{"command": "verma.nosuch", "options": {}}]},
        {"runs": [{"command": "verma", "options": {"lam": "1/2"}}]},
        [{"command": "verma.defect", "options": {"lam": "1/2", "n": "4"}}],
        {"runs": {"command": "verma.defect", "options": {"lam": "1/2", "n": "4"}}},
        {"runs": ["verma.defect"]},
        {"runs": [{"command": "verma.defect", "options": {"lam": "1/2", "n": "4", "colour": 1}}]},
        {"runs": [{"command": "verma.separate", "options": {"mu": "1/3", "n": 16}}]},
        {"runs": [{"command": "sweep", "options": {"config": "sweep.json"}}]},
        {"runs": [{"command": "verma.separate", "options": {"lam": "1/2", "mu": "1/3", "n": "abc"}}]},
    ],
    ids=["unknown-command", "no-subcommand", "non-object-config", "runs-not-list",
         "run-not-object", "unknown-option", "missing-lam", "nested-sweep", "bad-int"],
)
def test_malformed_sweep_is_usage_error(tmp_path, capsys, config):
    code, out, err = run_sweep(tmp_path, capsys, config)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


COUNT_OPTIONS = [
    ("field.selftest", {}, "trials"),
    ("verma.weyl", {"lambda": "1/2", "n": 4}, "trials"),
    ("verma.repdist", {"lambda": "1/2", "n": 4}, "battery"),
    ("rolli.certify", {"n": 4}, "conjugates"),
    ("compress.check", {"n": 4, "k": 2}, "trials"),
]


@pytest.mark.parametrize("value", ["-1", "0", "two"])
@pytest.mark.parametrize("command, options, count", COUNT_OPTIONS,
                         ids=[f"{c}-{k}" for c, _, k in COUNT_OPTIONS])
def test_count_options_reject_values_below_one(tmp_path, capsys, command, options, count, value):
    argv = command.split(".") + [f"--{key}={v}" for key, v in options.items()]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{count}", value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"--{count}: {value} is not a positive integer")
    code, out, err = run_sweep(tmp_path, capsys, {"runs": [{"command": command, "options": {**options, count: value}}]})
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "is not a positive integer" in err


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["verma", "build", "--lambda", "1/0", "--n", "3"],
         {"command": "verma.build", "options": {"lambda": "1/0", "n": 3}}),
        (["verma", "separate", "--lambda", "1/2", "--mu=1/0", "--n", "4"],
         {"command": "verma.separate", "options": {"lambda": "1/2", "mu": "1/0", "n": 4}}),
    ],
    ids=["lambda", "mu"],
)
def test_zero_denominator_weight_is_usage_error(tmp_path, capsys, argv, entry):
    for code, out, err in (run_cli(capsys, *argv), run_sweep(tmp_path, capsys, {"runs": [entry]})):
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "zero denominator" in err


def test_fractional_weight_over_prime_field(capsys):
    code, half, _ = run_cli(capsys, "verma", "build", "--lambda", "1/2", "--n", "3", "--field", "gf7")
    assert code == 0
    code, four, _ = run_cli(capsys, "verma", "build", "--lambda", "4", "--n", "3", "--field", "gf7")
    assert code == 0
    half, four = strip_timing(half), strip_timing(four)
    assert half["config"].pop("lambda") == "1/2" and four["config"].pop("lambda") == "4"
    assert half == four
    code, out, err = run_cli(capsys, "verma", "build", "--lambda", "1/7", "--n", "3", "--field", "gf7")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_prime_field_beyond_two_to_the_64(capsys):
    code, out, err = run_cli(capsys, "verma", "repdist", "--lambda", "1/2", "--n", "16",
                             "--field", "gf318665857834031151167461")  # composite: 399165290221 * 798330580441
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, _ = run_cli(capsys, "compress", "check", "--n", "4", "--k", "3", "--trials", "1",
                           "--field", "gf18446744073709551629")  # the prime 2**64 + 13
    assert code == 0 and strip_timing(out)["pass"] is True


def test_witness_exponent_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rolli", "witness", "--n", "5", "--t", "0"])
    assert exc.value.code == 2
    assert "--t: 0 is not a positive integer" in capsys.readouterr().err


def test_sweep_parses_option_strings(tmp_path, capsys):
    options = {"lam": "1/2", "mu": "1/3", "n": "16"}
    code, out, _ = run_sweep(tmp_path, capsys, {"runs": [{"command": "verma.separate", "options": options}]})
    assert code == 0
    (run,) = strip_timing(out)["runs"]
    assert run["config"]["n"] == 16
    assert run["pass"] is True


def test_sweep_example_matches_direct_runs(capsys):
    path = Path(__file__).resolve().parents[1] / "demos" / "sweep_example.json"
    config = json.loads(path.read_text())
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 0
    runs = strip_timing(out)["runs"]
    assert len(runs) == len(config["runs"])
    for entry, swept in zip(config["runs"], runs):
        argv = entry["command"].split(".")
        for key, value in entry["options"].items():
            argv.append(f"--{'lambda' if key == 'lam' else key}={value}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if entry["command"] == "compress.check":
            out = out[out.index("{\n"):]  # drop the per-trial JSON lines
        assert strip_timing(out) == swept


def test_sweep_across_fields_matches_standalone_runs(tmp_path, capsys):
    # the simple modules and characters cached per field must not leak between entries
    entries = [{"command": "verma.repdist", "options": {"lambda": "1/2", "n": 16, "field": tag}}
               for tag in ("rational", "gf7", "rational")]
    code, out, _ = run_sweep(tmp_path, capsys, {"runs": entries})
    runs = strip_timing(out)["runs"]
    assert code == 3 and len(runs) == 3  # gf7 has inconclusive cases
    codes = []
    for entry, swept in zip(entries, runs):
        argv = ["verma", "repdist"] + [f"--{key}={value}" for key, value in entry["options"].items()]
        code, out, _ = run_cli(capsys, *argv)
        codes.append(code)
        assert strip_timing(out) == swept
    assert codes == [0, 3, 0]


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("preset", ["diag_involution", "transposition", "transvection"])
@pytest.mark.parametrize("command", ["defect", "witness", "certify"])
def test_rolli_nonpositive_n_is_usage_error(capsys, command, preset, n):
    code, out, err = run_cli(capsys, "rolli", command, "--preset", preset, f"--n={n}")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: n must be positive"]
