"""Experiment harness: certificate batches, sweeps, reproducible reports.

Every run echoes its full configuration into the output, prints all exact
values as rational strings, and is deterministic given (config, seed); only
the content of the "timing" key varies between identical runs.  Exit codes:
0 all certificates pass, 2 usage error, 3 a certificate did not pass or a
certified bound was violated (the latter with a diagnostic dump, since it
indicates a bug).

A command handler returns only its report's body, with an optional CSV table;
`_run` puts it in the envelope every report shares.  The envelope adds
"config", the echo of the command's options, unless the body echoes its own
(`rolli witness` adds its resolved `t`, `sweep` its config file), and, when
the body has "cases" and no "pass", sets "pass" to whether every case passes.
A report without "pass" exits 0.

A sweep entry {"command": "group.sub", "options": {...}} runs any rsl
subcommand, with options keyed by their flag names; it is parsed by the same
parser as the command line, and a malformed entry is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import time

from .compress import random_frame, verify_mult_defect, verify_rank_lower, align_compressions
from .errors import BoundViolation
from .exactfield import QQ, field_from_tag, modular_rank_certificate
from .liealg import almostrep_to_text, build_sl, direct_sum_rep
from .prng import XorShift64Star, random_matrix
from .rolli import (
    certificate_battery,
    default_witness_exponent,
    exact_defect,
    phi_eval,
    preset_tau,
    pullback,
    witness_word,
    word_reduce,
)
from .verma import (
    VermaModule,
    build_truncation,
    casimir,
    central_character_value,
    check_highest_weight_structure,
    epsilon_bound,
    parse_weight,
    rep_distance_certificate,
    separation_certificate,
    weyl_twist_scan,
)


def _emit(report: dict, csv_header, csv_rows, out_prefix):
    """Print the JSON report and the CSV table, or write them to `out_prefix`.json and .csv."""
    with contextlib.ExitStack() as files:
        def sink(suffix, **kwargs):
            return files.enter_context(open(out_prefix + suffix, "w", **kwargs)) if out_prefix else sys.stdout

        print(json.dumps(report, sort_keys=True, indent=2), file=sink(".json"))
        if csv_header:
            csv.writer(sink(".csv", newline="")).writerows([csv_header, *csv_rows])
    if out_prefix:
        print(f"wrote {out_prefix}.json" + (f" and {out_prefix}.csv" if csv_header else ""))


def _config(args, **resolved) -> dict:
    """The echo of a command's options, keyed by flag name, with `resolved` values on top."""
    skip = {"out", "rep_out", "jsonl", "command", "subcommand", "func"}  # outputs and dispatch
    options = {"lambda" if name == "lam" else name: value
               for name, value in vars(args).items() if name not in skip}
    return {"command": f"{args.command} {args.subcommand}", **options, **resolved}


def _run(args):
    """(report, csv header, csv rows) of a parsed command, its body in the report envelope."""
    report, header, rows = args.func(args)
    if "config" not in report:
        report["config"] = _config(args)
    if "cases" in report and "pass" not in report:
        report["pass"] = all(c["pass"] for c in report["cases"])
    return report, header, rows


# ---------------------------------------------------------------------------
# verma commands


def _verma_inputs(args):
    """(algebra, field, weight) of a command whose options come from add_common."""
    field = field_from_tag(args.field)
    return build_sl(int(args.algebra[2:])), field, parse_weight(field, args.lam)


def _cmd_verma_build(args):
    algebra, field, weight = _verma_inputs(args)
    rep = build_truncation(algebra, weight, args.n, field)
    structure = check_highest_weight_structure(rep)
    defect = rep.meta["pointwise_defect"]
    report = {
        "dim": rep.dim,
        "defect": defect.to_json(),
        "bound": str(epsilon_bound(algebra, args.n)),
        "structure": structure.to_json(),
        "pass": structure.passed,
    }
    if args.rep_out:
        with open(args.rep_out, "w") as fh:
            fh.write(almostrep_to_text(rep))
        report["rep_file"] = args.rep_out
    return report, None, None


def _cmd_verma_defect(args):
    algebra, field, weight = _verma_inputs(args)
    cases = []
    for n in sorted(int(x) for x in args.n.split(",")):
        rep = build_truncation(algebra, weight, n, field)
        defect = rep.meta["pointwise_defect"]
        bound = epsilon_bound(algebra, n)
        cases.append({
            "n": n,
            "dim": rep.dim,
            "defect": str(defect.value),
            "bound": str(bound),
            "pass": defect.value <= bound,
        })
    rows = [[c["n"], c["dim"], c["defect"], c["bound"], c["pass"]] for c in cases]
    return {"cases": cases}, ["n", "dim", "defect", "bound", "pass"], rows


def _cmd_verma_casimir(args):
    algebra, field, weight = _verma_inputs(args)
    omega = casimir(algebra, field)
    chi = central_character_value(algebra, omega, weight, field)
    module = VermaModule(algebra, weight, field)
    # centrality spot check: the ordered element commutes with every generator
    # through exact straightening on low-degree vectors
    commutes = True
    probes = [module.zero_monomial]
    for a in range(algebra.m):
        mono = [0] * algebra.m
        mono[a] = 2
        probes.append(tuple(mono))
    for mono in probes:
        vec = {mono: field.one}
        for gen in range(algebra.dim):
            lhs = module.act_vector(gen, module.act_element(omega, vec))
            rhs = module.act_element(omega, module.act_vector(gen, vec))
            if lhs != rhs:
                commutes = False
    return {
        "character": str(chi),
        "degree": omega.degree,
        "centrality_spot_check": commutes,
        "pass": commutes,
    }, None, None


def _cmd_verma_separate(args):
    algebra, field, lam = _verma_inputs(args)
    mu = parse_weight(field, args.mu)
    rep_a = build_truncation(algebra, lam, args.n, field)
    rep_b = build_truncation(algebra, mu, args.n, field)
    cert = separation_certificate(rep_a, rep_b)
    return {"certificate": cert.to_json(), "pass": cert.separated}, None, None


def _partition_battery(total_dim: int, count: int, seed: int) -> list:
    """Deterministic list of partitions d_i with sum(d_i + 1) = total_dim."""
    batts = [[total_dim - 1], [0] * total_dim,
             [1] * ((total_dim - 1) // 2) + [0] * (1 + (total_dim - 1) % 2)]
    rng = XorShift64Star(seed)
    while len(batts) < count:
        remaining = total_dim
        parts = []
        while remaining > 0:
            d = rng.below(min(remaining, 13))
            parts.append(d)
            remaining -= d + 1
        batts.append(parts)
    return batts[:count]


def _cmd_verma_repdist(args):
    algebra, field, weight = _verma_inputs(args)
    rep = build_truncation(algebra, weight, args.n, field)
    batts = _partition_battery(rep.dim, args.battery, args.seed)
    cases = []
    for idx, parts in enumerate(batts):
        cert = rep_distance_certificate(rep, direct_sum_rep(parts, field))
        cases.append({
            "case": idx,
            "partition": list(parts),
            "verdict": cert.verdict,
            "kernel_dim": cert.kernel_dim,
            "bound": str(cert.flexible_bound) if cert.flexible_bound is not None else None,
            "basis_max": str(cert.basis_max_distance.value) if cert.basis_max_distance else None,
            "pass": cert.certified,
        })
    rows = [[c["case"], " ".join(map(str, c["partition"])), c["verdict"],
             c["kernel_dim"], c["bound"], c["basis_max"], c["pass"]] for c in cases]
    return {"cases": cases}, ["case", "partition", "verdict", "kernel_dim", "bound", "basis_max", "pass"], rows


def _cmd_verma_weyl(args):
    field = field_from_tag(args.field)
    algebra = build_sl(2)
    weight = parse_weight(field, args.lam)
    rep = build_truncation(algebra, weight, args.n, field)
    scan = weyl_twist_scan(rep, args.trials, args.seed)
    return {"scan": scan}, None, None


# ---------------------------------------------------------------------------
# rolli commands


def _cmd_rolli_defect(args):
    field = field_from_tag(args.field)
    tau = preset_tau(args.preset, args.n, field)
    result = exact_defect(tau)
    report = {
        "defect": result.defect.to_json(),
        "bound": str(result.bound),
        "witness_pair": list(result.witness_pair),
        "pass": result.defect.value <= result.bound,
    }
    rows = [[args.preset, args.n, str(result.defect.value), str(result.bound), report["pass"]]]
    return report, ["preset", "n", "defect", "bound", "pass"], rows


def _cmd_rolli_witness(args):
    field = field_from_tag(args.field)
    tau = preset_tau(args.preset, args.n, field)
    t = default_witness_exponent(tau) if args.t is None else args.t
    w, _, value = tau.witness(t)
    return {
        "config": _config(args, t=t),
        "word": str(w),
        "witness_value": str(value),
        # c > 1/n, so that the distance chain's bound (c - 1/n)/6 is positive
        "pass": value * tau.n > 1,
    }, None, None


def _cmd_rolli_certify(args):
    field = field_from_tag(args.field)
    tau = preset_tau(args.preset, args.n, field)
    reports = certificate_battery(tau, args.seed, conjugates=args.conjugates)
    cases = [
        {"family": name, **r.to_json(), "pass": r.passed} for name, r in reports
    ]
    rows = [[c["family"], c["eps_lower"], c["final_bound"], c["witness_value"], c["pass"]]
            for c in cases]
    return {"cases": cases}, ["family", "eps_lower", "bound", "witness_value", "pass"], rows


def _cmd_rolli_pullback(args):
    field = field_from_tag(args.field)
    tau = preset_tau(args.preset, args.n, field)
    images = {
        "g1": word_reduce("a"),
        "g2": word_reduce("b"),
        "g3": word_reduce(""),
    }
    ev = pullback(images, tau)
    t = default_witness_exponent(tau)
    gamma_witness = []
    for j in range(1, t + 1):
        gamma_witness.append(("g1", 1))
        gamma_witness.append(("g2", j))
    direct = phi_eval(witness_word(t), tau)
    composed = ev.eval(gamma_witness)
    return {
        "generator_images": {k: str(v) for k, v in images.items()},
        "witness_agrees": composed == direct,
        "pass": composed == direct,
    }, None, None


# ---------------------------------------------------------------------------
# compress / field commands


def _cmd_compress_check(args):
    field = field_from_tag(args.field)
    rng = XorShift64Star(args.seed)
    cases = []
    for trial in range(args.trials):
        m1 = random_matrix(field, rng, args.n, args.n)
        m2 = random_matrix(field, rng, args.n, args.n)
        frame1 = random_frame(field, args.n, args.k, rng)
        frame2 = random_frame(field, args.n, args.k, rng)
        r1 = verify_rank_lower(m1, frame1)
        r2 = verify_mult_defect(m1, m2, frame1)
        _, r3 = align_compressions(frame1, frame2, [m1, m2])
        for law, rep in (("rank_lower", r1), ("mult_defect", r2)):
            cases.append({"trial": trial, "law": law, **rep.to_json()})
        cases.append({"trial": trial, "law": "align", "n": args.n, "k": args.k,
                      "lhs": max(r3.per_matrix), "rhs": r3.bound,
                      "pass": max(r3.per_matrix) <= r3.bound})
    # per-trial JSON lines belong to the direct subcommand's stdout, not to
    # batch runs whose stdout is a single report document
    if args.jsonl:
        for rec in cases:
            print(json.dumps(rec, sort_keys=True))
    rows = [[c["trial"], c["law"], c["n"], c["k"], c["lhs"], c["rhs"], c["pass"]] for c in cases]
    return {"cases": cases}, ["trial", "law", "n", "k", "lhs", "rhs", "pass"], rows


def _cmd_field_selftest(args):
    rng = XorShift64Star(args.seed)
    fields = [QQ, field_from_tag("gf2"), field_from_tag("gf3"), field_from_tag("gf7"),
              field_from_tag("gaussian")]
    cases = []
    for field in fields:
        for _ in range(args.trials):
            n = rng.randint(2, 5)
            a = random_matrix(field, rng, n, n)
            b = random_matrix(field, rng, n, n)
            rank_a, rank_b = a.rank(), b.rank()
            sub = (a + b).rank() <= rank_a + rank_b
            prod = (a * b).rank() <= min(rank_a, rank_b)
            transp = rank_a == a.transpose().rank()
            kern = a.kernel_basis().cols == n - rank_a
            ok = sub and prod and transp and kern
            cases.append({"field": field.tag, "n": n, "subadditive": sub,
                          "product": prod, "transpose": transp, "kernel": kern,
                          "pass": ok})
    for _ in range(args.trials):
        n = rng.randint(2, 4)
        a = random_matrix(QQ, rng, n, n)
        cert = modular_rank_certificate(a, [5, 7])
        cases.append({"field": "rational", "n": n, "law": "modular<=rank",
                      "pass": cert <= a.rank()})
    return {"cases": cases}, None, None


# ---------------------------------------------------------------------------
# sweep


def _entry_args(run) -> argparse.Namespace:
    """Parse one sweep entry as the argv `group sub --key=value ...`."""
    if not isinstance(run, dict) or not isinstance(run.get("options", {}), dict):
        raise ValueError(f"sweep run {run!r} is not an object with an options object")
    command = run.get("command")
    parts = command.split(".") if isinstance(command, str) else []
    if parts[:1] == ["sweep"]:
        raise ValueError("a sweep run cannot start another sweep")
    # plain names only, so an entry cannot pass -h or a top-level flag such as --out
    if len(parts) != 2 or not all(p.isidentifier() for p in parts):
        raise ValueError(f"sweep command {command!r} is not of the form group.sub")
    argv = parts + [f"--{str(key).replace('_', '-')}={value}"
                    for key, value in run.get("options", {}).items()]
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            args = build_parser().parse_args(argv)
    except SystemExit:
        message = usage.getvalue().strip().rpartition(": error: ")[2]
        raise ValueError(f"sweep command {command}: {message}") from None
    args.jsonl = False
    return args


def run_config(config: dict) -> dict:
    """Execute a batch configuration programmatically.

    `config` is {"runs": [{"command": "verma.defect", "options": {...}}, ...]}
    or a single {"command", "options"} record.  Every entry is parsed before
    any runs; a malformed one raises ValueError.  The full configuration is
    echoed into the returned report.
    """
    if not isinstance(config, dict):
        raise ValueError("sweep config is not a JSON object")
    runs = config["runs"] if "runs" in config else [config]
    if not isinstance(runs, list):
        raise ValueError('sweep config "runs" is not a list')
    parsed = [_entry_args(run) for run in runs]
    sub_reports = [_run(args)[0] for args in parsed]
    return {
        "config": {"command": "sweep", "echo": config},
        "runs": sub_reports,
        "pass": all(r.get("pass", True) for r in sub_reports),
    }


def _cmd_sweep(args):
    with open(args.config) as fh:
        config = json.load(fh)
    report = run_config(config)
    report["config"]["file"] = args.config
    return report, None, None


# ---------------------------------------------------------------------------
# argument parsing


def _count(text: str) -> int:
    """Argparse type of a count option: a count below 1 would run no cases."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rsl parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rsl",
        description="certificates for rank-metric almost-representations",
    )
    parser.add_argument("--out", help="path prefix for report.json/report.csv output")
    sub = parser.add_subparsers(dest="command", required=True)

    verma = sub.add_parser("verma", help="truncated highest-weight almost-representations")
    vsub = verma.add_subparsers(dest="subcommand", required=True)

    def add_common(p, mu=False, n=True, n_list=False):
        p.add_argument("--algebra", choices=["sl2", "sl3"], default="sl2")
        p.add_argument("--lambda", dest="lam", required=True,
                       help='weight coordinates, e.g. "1/2" or "1/2,1/3"')
        if mu:
            p.add_argument("--mu", required=True, help="second weight")
        if n_list:
            p.add_argument("--n", required=True, help="comma-separated truncation degrees")
        elif n:
            p.add_argument("--n", type=int, required=True, help="truncation degree")
        p.add_argument("--field", default="rational")

    p = vsub.add_parser("build")
    add_common(p)
    p.add_argument("--rep-out", help="write the serialized representation here")
    p.set_defaults(func=_cmd_verma_build)

    p = vsub.add_parser("defect")
    add_common(p, n_list=True)
    p.set_defaults(func=_cmd_verma_defect)

    p = vsub.add_parser("casimir")
    add_common(p, n=False)
    p.set_defaults(func=_cmd_verma_casimir)

    p = vsub.add_parser("separate")
    add_common(p, mu=True)
    p.set_defaults(func=_cmd_verma_separate)

    p = vsub.add_parser("repdist")
    add_common(p)
    p.add_argument("--battery", type=_count, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verma_repdist)

    p = vsub.add_parser("weyl")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", default="rational")
    p.add_argument("--trials", type=_count, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_verma_weyl)

    rolli = sub.add_parser("rolli", help="free-group almost-representations")
    rsub = rolli.add_subparsers(dest="subcommand", required=True)

    def add_rolli(p):
        p.add_argument("--preset", choices=["diag_involution", "transposition", "transvection"],
                       default="diag_involution")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--field", default="rational")

    p = rsub.add_parser("defect")
    add_rolli(p)
    p.set_defaults(func=_cmd_rolli_defect)

    p = rsub.add_parser("witness")
    add_rolli(p)
    p.add_argument("--t", type=_count, help="witness exponent (defaults per preset)")
    p.set_defaults(func=_cmd_rolli_witness)

    p = rsub.add_parser("certify")
    add_rolli(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--conjugates", type=_count, default=20)
    p.set_defaults(func=_cmd_rolli_certify)

    p = rsub.add_parser("pullback")
    add_rolli(p)
    p.set_defaults(func=_cmd_rolli_pullback)

    comp = sub.add_parser("compress", help="compression inequality checks")
    csub = comp.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--field", default="gf7")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_compress_check, jsonl=True)

    fld = sub.add_parser("field", help="scalar and rank kernel checks")
    fsub = fld.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("selftest")
    p.add_argument("--trials", type=_count, default=25)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_field_selftest)

    p = sub.add_parser("sweep", help="run a batch described by a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, header, rows = _run(args)
    except BoundViolation as exc:
        print(f"BOUND VIOLATION: {exc}", file=sys.stderr)
        for key, value in exc.details.items():
            print(f"--- {key} ---", file=sys.stderr)
            print(value, file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["timing"] = {"seconds": round(time.perf_counter() - start, 6)}
    _emit(report, header, rows, args.out)
    return 0 if report.get("pass", True) else 3


if __name__ == "__main__":
    sys.exit(main())
