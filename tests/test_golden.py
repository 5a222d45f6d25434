"""Golden bytes: sha256 of the plan, simulate and check outputs.

Every shipped sample runs under every corner strategy (the sample config
with its policy strategy swapped). A refactor that claims "same bytes"
must leave every hash here unchanged; a change that alters an output on
purpose updates its hash and says why.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import coil_svg
from lmprint.cli import main
from lmprint.svg import flatten_cubic
from lmprint.report import Table

# numpy warnings fail these tests: each np.errstate of the span kernel must
# cover the operations that warn on purpose (a row that misses an outline,
# a flat segment), and no wider
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SAMPLES = "samples"
PIPELINE = ["--speed", "10", "--pressure", "30"]
STRATEGIES = ("lift-and-retap", "slowdown", "fillet")
PAIRS = {
    "straight-line": "A:B",
    "square": "corner:corner",
    "grid-antenna": "feed:tip",
    "ic-sketch": "L1:B1,L2:R1,T1:T2",
}
RESISTIVITY = "2.9e-7"

# (sample, strategy, command) -> sha256 of the output files, in order
GOLDEN = {
    ('straight-line', 'lift-and-retap', 'plan'):
        ['fac15248efe4639e4e537e9a0534e2ec606e073893db2758fecea9a6a35fd083'],
    ('straight-line', 'lift-and-retap', 'simulate'):
        ['d70369aa4a0248b57a2990a0f940063592a01fac84c1d9efbd97836e300dacd0',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'lift-and-retap', 'check'):
        ['d4671cc600ff876663d0cb303f97766bac7efa696756cf117651262639d8b916'],
    ('straight-line', 'slowdown', 'plan'):
        ['95a40370e9cc0adc94e2925485983bcc8b11ca5bbacc76864603b1a8a086a227'],
    ('straight-line', 'slowdown', 'simulate'):
        ['affc378e65fb5ceaf4071faf9cdded5adf3d47364780de793233b0d21e8717ef',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'slowdown', 'check'):
        ['d4671cc600ff876663d0cb303f97766bac7efa696756cf117651262639d8b916'],
    ('straight-line', 'fillet', 'plan'):
        ['10b994f0369c9c2eed9ef991ec902c757ffe4df171df9bfce1ac714f6010b463'],
    ('straight-line', 'fillet', 'simulate'):
        ['e7f85f15c8f195fe242b7ff9a4e391cf26be3d9774b13e8d9954a1aab96c2d89',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'fillet', 'check'):
        ['d4671cc600ff876663d0cb303f97766bac7efa696756cf117651262639d8b916'],
    ('square', 'lift-and-retap', 'plan'):
        ['1977e6962c44e048f2a5215bf3dd31919650c3af7e1d4a8c8eb1a78937492d37'],
    ('square', 'lift-and-retap', 'simulate'):
        ['75d4bf7b58080ab5efd4b3e8bc59a4885ff812168884f933fe00edf6e7482101',
         '42482efe5c93d8c032b0a956ad18a13a6d6000286516e9ce62fa60af5b967c8d'],
    # the square's corner:corner pair is one pad paired with itself: 0 ohm
    ('square', 'lift-and-retap', 'check'):
        ['2a409708872a9b19b6b1a74daf3c7e0fa7fcdc614942231f17e94e1750ad1fb7'],
    ('square', 'slowdown', 'plan'):
        ['b32739f09c4e42d09ba906f0cc1e6e19ffaa319ce9b45b7a6a4b6f5844c4a697'],
    ('square', 'slowdown', 'simulate'):
        ['9adb8b6e10d72ec548e4be0faff6938f334f1c9eff6b9223ee89071c1b0a350f',
         '4fa14f6e5c91fb3970664bb6a52bd09cc4a5ff46b0feb7b9b7fa193076299959'],
    ('square', 'slowdown', 'check'):
        ['3bcbec644dfe749f933ed1f675ea65895d9045cb3a4383fc1a30a31757c04af2'],
    ('square', 'fillet', 'plan'):
        ['18b09b145b239d9ab9cb8d276164462e92e29c3fbf2e8254214fe38cdfe2da56'],
    ('square', 'fillet', 'simulate'):
        ['7facc6e7f20aa32eb53344d5f2f91bc0d13d557b8ed741f8b17515d11093afa5',
         'e0bcd4088707b4f1eca95f8ab1f90e8ac01eaf608afcd03cf54e97d6acad49be'],
    ('grid-antenna', 'lift-and-retap', 'plan'):
        ['626350faca4c3e729c3b27d0ac56d8c2e5a8eedf06f84eceacacc9b1b3e12ee8'],
    ('grid-antenna', 'lift-and-retap', 'simulate'):
        ['ab5db2cfde14860c9d3926130daed7b7e9d8afd663abae45870f0037c7ea51ca',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'lift-and-retap', 'check'):
        ['3beb6284bfcab838b59a10b8597f65d78d4580395645b315fc60fdc57e0bb292'],
    ('grid-antenna', 'slowdown', 'plan'):
        ['be647259f3a656e7bcf29ba8b25fc01b020be13a3d2c122fec578accd06281cf'],
    ('grid-antenna', 'slowdown', 'simulate'):
        ['78a4ce90d5035fae35b09b60cfaa8e01b7ad2628efc56e5d6c0c4eab1920b0f6',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'slowdown', 'check'):
        ['3beb6284bfcab838b59a10b8597f65d78d4580395645b315fc60fdc57e0bb292'],
    ('grid-antenna', 'fillet', 'plan'):
        ['4142831bd79933ec90efb369cd12105deda65b0c2492f8fc3ff449cc2ba1c391'],
    ('grid-antenna', 'fillet', 'simulate'):
        ['07c20e7eb111a90bf961d81337aaaa8c0840b47ddb00630aafb69dd984c8f76d',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'fillet', 'check'):
        ['3beb6284bfcab838b59a10b8597f65d78d4580395645b315fc60fdc57e0bb292'],
    ('ic-sketch', 'lift-and-retap', 'plan'):
        ['8dba6d9f81fe8cca2f028a4067952450dd7e0c13b842d3f171c2f7f27a52711e'],
    ('ic-sketch', 'lift-and-retap', 'simulate'):
        ['4c8112622997b51c18f5fa1345b810db49df8f15d4a96610974301915e276469',
         '4c4c7c22ce0a85e9f27b2ef1961d3286d90f87cb4823476b5db9300a3033e2c5'],
    ('ic-sketch', 'lift-and-retap', 'check'):
        ['0b1efd28e36f3c8a8cadc2e77791ba8c2993b9213031b54ebb7c78130efad5fd'],
    ('ic-sketch', 'slowdown', 'plan'):
        ['1bbc252d60bb699ad8b591929cad8d3502d5251f3d48029e9662bd22b58dfd7f'],
    ('ic-sketch', 'slowdown', 'simulate'):
        ['eee3070378bafc80e1d1edb01618fe92add1cf7164a451aa7652187048467920',
         'd09deb3613ee7a286d3b69b052cfc514a4cb0d505e847d23bc1cde90fe6ccdc9'],
    ('ic-sketch', 'slowdown', 'check'):
        ['f7f7a97c37168be26eca3e002183e6ca58296042dd939899e196bd87d59f1ea0'],
    ('ic-sketch', 'fillet', 'plan'):
        ['6cc29609e83336b243a4501f417fec4c8b07ae32b61f31b388f4f0afb2e8a4ac'],
    ('ic-sketch', 'fillet', 'simulate'):
        ['e400fabadca50910d4cb02b6dff8a1fb77bbd16674cd92fb39752c70b927faa3',
         '2fc656807adc500b7fd02e4d74c4aadb5603352517fef40af8995225fe1ddd23'],
    ('ic-sketch', 'fillet', 'check'):
        ['6856a2b6857ba3aba64b6e01eb8ce44a361e368f693e3a6906ffc0d4f80a1162'],
}

# runs that fail on purpose: (sample, strategy, command) -> (exit, stderr)
GOLDEN_ERRORS = {
    ("square", "fillet", "check"):
        (1, "error: pad 'corner' touches no trace\n"),
}

# flatten_cubic on seeded random curves: point count and sha256 of repr
FLATTENED_POINTS = 34983
FLATTENED_SHA256 = \
    "698ab9f8ae3abdadf0f3865906591528e463cfd20fc466b667403bc18823ffe8"


def _config(tmp_path, strategy):
    doc = json.loads(Path(SAMPLES, "config.json").read_bytes())
    doc["policy"]["strategy"] = strategy
    path = tmp_path / f"{strategy}.config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _argv(sample, command, config, tmp_path):
    base = ["--config", str(config), "--drawing",
            f"{SAMPLES}/{sample}.json", *PIPELINE]
    report = tmp_path / f"{sample}.{command}.json"
    if command == "plan":
        return ["plan", *base, "--out", str(report)], [report]
    if command == "simulate":
        pgm = tmp_path / f"{sample}.pgm"
        return (["simulate", *base, "--out", str(report), "--pgm", str(pgm)],
                [report, pgm])
    return (["check", *base, "--out", str(report), "--pairs", PAIRS[sample],
             "--resistivity", RESISTIVITY], [report])


CASES = [(sample, strategy, command) for sample in PAIRS
         for strategy in STRATEGIES for command in ("plan", "simulate", "check")]


def run_case(sample, strategy, command, tmp_path, capsys):
    """Run one case; return (exit code, stderr, sha256 of each output)."""
    argv, outputs = _argv(sample, command, _config(tmp_path, strategy),
                          tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in outputs if p.exists()]
    return rc, err, digests


@pytest.mark.parametrize("sample,strategy,command", CASES,
                         ids=["/".join(c) for c in CASES])
def test_cli_output_bytes(sample, strategy, command, tmp_path, capsys):
    rc, err, digests = run_case(sample, strategy, command, tmp_path, capsys)
    key = (sample, strategy, command)
    if key in GOLDEN_ERRORS:
        assert (rc, err) == GOLDEN_ERRORS[key]
        return
    assert rc == 0, err
    assert digests == GOLDEN[key]


def test_flattened_cubic_bytes():
    # SVG cubics reach the reports only through flatten_cubic; pin its
    # polylines to the last bit on seeded random curves and tolerances
    rng = random.Random(7)
    out = []
    for _ in range(300):
        points = [(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
                  for _ in range(4)]
        flatten_cubic(*points, rng.choice((0.001, 0.01, 0.05)), out)
    assert len(out) == FLATTENED_POINTS
    assert hashlib.sha256(repr(out).encode()).hexdigest() == FLATTENED_SHA256


# simulate --pgm on a seeded SVG of cubic coils (fillet corners, 0.01
# mm/px): every trace is a short chord at its own angle, which the sample
# drawings, all axis-aligned, never exercise in the raster
COILS_PGM_SHA256 = \
    "dc6f0e57ab2b69643c74d4602fa4a944fb1903f48a7094da4789406eefe95928"


def _simulate_coils(tmp_path, svg_text, *extra):
    """simulate on an SVG of coils with fillet corners; the report's path."""
    svg = tmp_path / "coils.svg"
    svg.write_text(svg_text, encoding="utf-8")
    config = tmp_path / "fillet.json"
    config.write_text(json.dumps(
        {"policy": {"strategy": "fillet", "fillet_radius_mm": 0.3}}))
    out = tmp_path / "coils.json"
    assert main(["simulate", "--config", str(config), "--drawing", str(svg),
                 *PIPELINE, "--out", str(out), *extra]) == 0
    return out


def test_coil_raster_bytes(tmp_path):
    pgm = tmp_path / "coils.pgm"
    _simulate_coils(tmp_path, coil_svg(seed=11),
                    "--pgm", str(pgm), "--scale", "0.01")
    assert hashlib.sha256(pgm.read_bytes()).hexdigest() == COILS_PGM_SHA256


def test_coil_raster_settles_few_pairs(tmp_path, monkeypatch):
    # the inner and outer outlines certify nearly every span end of the
    # coils, so the per-pixel rule settles few (trace, row) pairs; the
    # bytes above would still pass if no end were certified
    from lmprint import raster
    counts = {"pairs": 0, "settled": 0}
    capsule_row, ink = raster._capsule_row, raster._ink

    def counted_row(y, *args):
        counts["pairs"] += y.size
        return capsule_row(y, *args)

    def counted_ink(col, ox, scale, ry, *args):
        counts["settled"] += ry.size  # a pair walked twice counts twice
        return ink(col, ox, scale, ry, *args)

    monkeypatch.setattr(raster, "_capsule_row", counted_row)
    monkeypatch.setattr(raster, "_ink", counted_ink)
    _simulate_coils(tmp_path, coil_svg(seed=11), "--pgm",
                    str(tmp_path / "coils.pgm"), "--scale", "0.01")
    assert counts["pairs"] > 10_000
    assert counts["settled"] <= 0.01 * counts["pairs"]


def test_long_coil_report_bytes_equal_json_dumps(tmp_path, monkeypatch):
    # the report writer against its oracle on a report of over 1000 traces,
    # whose trace and action tables take the table path, not the fallback
    def no_fallback(table):
        raise AssertionError("a report table failed the type check")

    monkeypatch.setattr(Table, "plain", no_fallback)
    out = _simulate_coils(tmp_path, coil_svg(seed=5, cells=3, turns=8))
    blob = out.read_bytes()
    report = json.loads(blob)
    assert len(report["traces"]) > 1000
    assert blob == (json.dumps(report, sort_keys=True, indent=2,
                               ensure_ascii=True) + "\n").encode("ascii")
