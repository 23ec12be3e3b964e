"""Pinned outputs: every README command, five commands at stretch sizes, the
five demos and the sweep example.

Each output is reduced to a sha256 digest after removing what may vary
between identical runs: the report's ``timing`` key, normalised as the
benchmark's worker does (the JSON report re-serialised with sorted keys;
JSON lines before it and CSV rows after it kept as printed).  Demo stdout is
digested as printed.  A change to any kernel that alters a report fails here.

The digests were recorded before sparse-row storage replaced the dense rows
of ``DenseMatrix``, the stretch-size ones before ``product_sum`` gained its
hypersparse accumulator.  After an intended output change, print the new table
with ``PYTHONPATH=src python tests/test_golden_reports.py`` and review it.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import shlex
from pathlib import Path

import pytest

from rankstability.cli import main

ROOT = Path(__file__).resolve().parents[1]

# The command-line examples of README.md, with `rsl` dropped; run from an
# empty directory, so that --rep-out writes there and reports its bare name.
README_COMMANDS = [
    "verma defect --algebra sl2 --lambda 1/2 --n 4,8,16,32",
    "verma build --algebra sl3 --lambda 1/2,1/3 --n 6 --rep-out rep.txt",
    "verma separate --lambda 1/2 --mu 1/3 --n 16",
    "verma repdist --lambda 1/2 --n 48 --battery 10 --seed 1",
    "verma casimir --algebra sl3 --lambda 1/2,1/3",
    "verma weyl --lambda 1/2 --n 8 --trials 5 --seed 1",
    "rolli defect --preset diag_involution --n 12 --field rational",
    "rolli witness --preset transposition --n 12 --field gf2",
    "rolli certify --preset diag_involution --n 12 --seed 1 --conjugates 20",
    "rolli pullback --preset diag_involution --n 6",
    "compress check --n 6 --k 4 --trials 100 --field gf7 --seed 1",
    "field selftest --trials 25 --seed 1",
]
# Stretch sizes of the kernels the README examples run small: sl3 defects
# above n = 6 and over GF(p) and Q(i), sl2 repdist and a rolli defect.
STRETCH_COMMANDS = [
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 9",
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 9 --field gf101",
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 5 --field gaussian",
    "verma repdist --lambda 1/2 --n 128 --battery 10 --seed 1",
    "rolli defect --preset transposition --n 512",
]
SWEEP = "sweep --config demos/sweep_example.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))

GOLDEN = {
    "verma defect --algebra sl2 --lambda 1/2 --n 4,8,16,32": "4e807570bc5e8a91098cbbc97ef2747b13200b562cf7266c990aa20a8b84590c",
    "verma build --algebra sl3 --lambda 1/2,1/3 --n 6 --rep-out rep.txt": "1c21e4e4f86623ac5bc5db58435b80acb9e053bc63e3f16c04d7bd82e90d9737",
    "verma separate --lambda 1/2 --mu 1/3 --n 16": "c67ed57fb808692498d7a6e69faf4971aa955fdb565b83c73142c786b61d5861",
    "verma repdist --lambda 1/2 --n 48 --battery 10 --seed 1": "f448ab72e29dccf6acdd96b1d8d7075c8582b988663c08d7ad33cf8800a1d55f",
    "verma casimir --algebra sl3 --lambda 1/2,1/3": "2e444afe6a6898d7439b88f1eedae41c4aadc244893795800355e12b0cf6cffe",
    "verma weyl --lambda 1/2 --n 8 --trials 5 --seed 1": "bc479ee48b19f2d2b040fde8dfed1da270a35c4ec4debcd6c1147a73e0433b79",
    "rolli defect --preset diag_involution --n 12 --field rational": "5da3035f5bcd8678caadfd03ce7bb6471a6d23729dba38d5c2f649bf55923fed",
    "rolli witness --preset transposition --n 12 --field gf2": "4150a7e5b7c36de142f9713d3ae29814fdc7099b94ed8195b3292be401728b14",
    "rolli certify --preset diag_involution --n 12 --seed 1 --conjugates 20": "c9f400ff07708350a2948885daa35a91101f94ad22a7b4ad87946367df3bccff",
    "rolli pullback --preset diag_involution --n 6": "a01c0edc3ad12cf5839f42631de1357bedcad6564645e951c50e14e2747f8ca9",
    "compress check --n 6 --k 4 --trials 100 --field gf7 --seed 1": "334a0c1a1cc6849d5f82afec5510fb1e8fc0222e28ec3208be1389fbe45ab0f1",
    "field selftest --trials 25 --seed 1": "872fb441d9f554e8379b9194584463db6e2d282ca4d8f4544192dc52f0edde03",
    "verma build rep.txt": "e1f168cf9c8f313f77b7e0e815b44287d41df3e27ca379985f940e77b6f4dd79",
    "sweep --config demos/sweep_example.json": "19c946b222a21bacd679b615660ac8dcd2499ae94dcb09a917b342486ea38223",
    "01_exact_rank_metric.py": "ac49b41ec3ae4270ac38b2f9046533303b038edad8d64ce29e66df345d5137d8",
    "02_compression_calculus.py": "1c3a2ff650312426ec0e43ecda4db9c01140eb1e76d6a5376a7c30d81298d92e",
    "03_truncated_highest_weight.py": "a70f6490fd58ae00ac06947cf2dd985a6632984c9c749685e947f25d447270d0",
    "04_character_separation.py": "5356015d5011d0f3a17f940944938be93ef4564d7d23322b5eff31f15d467fd5",
    "05_free_group_maps.py": "8bd306602cfd74c69ae470a3be4d1eaaee9402d5bce288dfe9ccf4b93c6d3c6d",
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 9": "020803d3cbf4aa1c016e8fabe2ca9f5cfb83b3fede11e5cc1e506fd06f089554",
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 9 --field gf101": "2ee8a2da09c926c64e73b3a425fcb0ad1bf34deb972a6805952a7cc3580bf22a",
    "verma defect --algebra sl3 --lambda 1/2,1/3 --n 5 --field gaussian": "8a12c118781355d65e4bb204d5b3af6855be664b97663df215449d222be5b3d4",
    "verma repdist --lambda 1/2 --n 128 --battery 10 --seed 1": "c2e20fdaad8344d14060b0c7bd44fd3f5c7120f3edfac77eb32a5098d00ffe29",
    "rolli defect --preset transposition --n 512": "55b49c1b104ccd2599a198b835d7220d7de897a2c6215daec8a072fe736da5df",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def normalise(text: str) -> str:
    """Digest of an rsl output with the report's timing removed."""
    start = 0 if text.startswith("{\n") else text.index("\n{\n") + 1
    report, end = json.JSONDecoder().raw_decode(text, start)
    report.pop("timing")
    return _sha(text[:start] + json.dumps(report, sort_keys=True, indent=2) + text[end:])


def _stdout(fn) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        fn()
    return buf.getvalue()


def _run(command: str, workdir: Path) -> str:
    codes = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = _stdout(lambda: codes.append(main(shlex.split(command))))
    finally:
        os.chdir(cwd)
    assert codes == [0], out
    return out


def digests(workdir: Path) -> dict:
    """The current digest of every pinned output, keyed as in GOLDEN."""
    out = {command: normalise(_run(command, workdir)) for command in README_COMMANDS + STRETCH_COMMANDS}
    out["verma build rep.txt"] = _sha((workdir / "rep.txt").read_text())
    out[SWEEP] = normalise(_run(SWEEP, ROOT))  # the report names the config path
    for name in DEMOS:
        path = str(ROOT / "demos" / name)
        out[name] = _sha(_stdout(lambda: runpy.run_path(path, run_name="__main__")))
    return out


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", list(GOLDEN))
def test_output_matches_golden_digest(current, key):
    assert current[key] == GOLDEN[key]


def test_golden_table_covers_every_output(current):
    assert set(current) == set(GOLDEN)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
