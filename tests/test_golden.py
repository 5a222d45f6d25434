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

from conftest import coil_svg, expanded_traces, v1_trace_rows
from lmprint import cli, read_report
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
        ['42d2f0190ea9c90cff9fe655334edff5449c7eb3979ef1367d772ba009402463'],
    ('straight-line', 'lift-and-retap', 'simulate'):
        ['a66ac2e8aed6a6654828d0031402a2a40414c5fc8f95ae8f5289efb67987adc0',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'lift-and-retap', 'check'):
        ['b7b6e52c0314211e316b0e7fac196ce7c4233414e1231de66ee97cc8f171d3ac'],
    ('straight-line', 'slowdown', 'plan'):
        ['ba180dac6bebbc40d43a75dd1ccb81793c8589f04a1ffa93d907c345eeaab9eb'],
    ('straight-line', 'slowdown', 'simulate'):
        ['78267927ab52383bb3953a47a578b216669ba0e94745555b223c17c63a8dbd15',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'slowdown', 'check'):
        ['b7b6e52c0314211e316b0e7fac196ce7c4233414e1231de66ee97cc8f171d3ac'],
    ('straight-line', 'fillet', 'plan'):
        ['bdf8bf93d552466958eca9952f66404deb259584cd51afe270e4b2f866a05095'],
    ('straight-line', 'fillet', 'simulate'):
        ['65aef4be2cbf2b2e6e887f14ed57eb8231c72057ddc48634241f6f6943074187',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'fillet', 'check'):
        ['b7b6e52c0314211e316b0e7fac196ce7c4233414e1231de66ee97cc8f171d3ac'],
    ('square', 'lift-and-retap', 'plan'):
        ['c5ae80597fc04e944af7564861c177a6603a5a90fe4f34b7028d0afbd09e942a'],
    ('square', 'lift-and-retap', 'simulate'):
        ['3f52f97420c13b5b22656abc3f59ef2f6e7a038727ea71ff5ef730431c2b453d',
         '42482efe5c93d8c032b0a956ad18a13a6d6000286516e9ce62fa60af5b967c8d'],
    # the square's corner:corner pair is one pad paired with itself: 0 ohm
    ('square', 'lift-and-retap', 'check'):
        ['abdffc33f1a244f53c802bb64e7de9eadcc8db3a7b7effeea08032bb8fedb781'],
    ('square', 'slowdown', 'plan'):
        ['e2fecc8bd2c12efff075c96279b99ce3e72175c1fb1550dca6af6c2be644ba7c'],
    ('square', 'slowdown', 'simulate'):
        ['5cf428cc057d5979c6dba01d44d2d18679273f9a5f3d53e78c74b5894eacf7ee',
         '4fa14f6e5c91fb3970664bb6a52bd09cc4a5ff46b0feb7b9b7fa193076299959'],
    ('square', 'slowdown', 'check'):
        ['e89c9e70f1abf21c426b95fa2684121006c6a5bbbca8b7670ae5d35489eaa2af'],
    ('square', 'fillet', 'plan'):
        ['d30be03d9f0e92c3e9e2cad2ae9930dff331b1823523a67a90f3e4a5ab4ea693'],
    ('square', 'fillet', 'simulate'):
        ['a5937c7edb34aa0cffb48f65321dfd4248139182de91cec0b1f2afb24f529aee',
         'e0bcd4088707b4f1eca95f8ab1f90e8ac01eaf608afcd03cf54e97d6acad49be'],
    ('grid-antenna', 'lift-and-retap', 'plan'):
        ['ac0b4db9c94c7b00b0073d922a832d70e30a4677747357a6fa3d21b4973ccdbe'],
    ('grid-antenna', 'lift-and-retap', 'simulate'):
        ['6517b856e716d57c5aa873a51d72c15a75688159df33d23e4a102313e58f08c9',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'lift-and-retap', 'check'):
        ['c77df847eb786e57fe2300a1e142d27b9c6d343ba53ec5929ad21ef23ec23ee1'],
    ('grid-antenna', 'slowdown', 'plan'):
        ['b7a610c14d4914895c128fa34c964c578603ddf46d7e511f94e3910c46645c99'],
    ('grid-antenna', 'slowdown', 'simulate'):
        ['a3a8f402f09dca401a63cdc0ecd47dfd0b4d375c6cd53acdfad834c893a8496c',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'slowdown', 'check'):
        ['c77df847eb786e57fe2300a1e142d27b9c6d343ba53ec5929ad21ef23ec23ee1'],
    ('grid-antenna', 'fillet', 'plan'):
        ['128c426db56b2cf20bfbb2a1750a58ff045df9f715273b0e3c5884b95c61c71f'],
    ('grid-antenna', 'fillet', 'simulate'):
        ['69a757484031663210ecb61634f473fd949fb2852b6b43d5c3c157092701a352',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'fillet', 'check'):
        ['c77df847eb786e57fe2300a1e142d27b9c6d343ba53ec5929ad21ef23ec23ee1'],
    ('ic-sketch', 'lift-and-retap', 'plan'):
        ['e69dcbe50522f955accab36d8e67c7c8491129df9e2214786522d67eb631d875'],
    ('ic-sketch', 'lift-and-retap', 'simulate'):
        ['2af563facc1e481a5e395506aadd61b0578cdee25685cf1c92ba16de191c9a11',
         '4c4c7c22ce0a85e9f27b2ef1961d3286d90f87cb4823476b5db9300a3033e2c5'],
    ('ic-sketch', 'lift-and-retap', 'check'):
        ['67ef8d6e7f8d9f3f674f47c092aa8f4a72ad1072660424daed73e1dd0c1158d3'],
    ('ic-sketch', 'slowdown', 'plan'):
        ['79b6b684082640f9310f24e75eeecc8e6facaaf2ede11873e2c9e72a75785243'],
    ('ic-sketch', 'slowdown', 'simulate'):
        ['f3810b1a4ea86b341c460a4debf340ca7588f217bea888fbe892c07ebfe0fade',
         'd09deb3613ee7a286d3b69b052cfc514a4cb0d505e847d23bc1cde90fe6ccdc9'],
    ('ic-sketch', 'slowdown', 'check'):
        ['03d480a1fa6b1c6cc93bc8ede32b3f2586012361a9f8b27e31d92dd6b4e5cc3f'],
    ('ic-sketch', 'fillet', 'plan'):
        ['8940b91a39c3cb16e697a9282a079406c52fe6c4f63b8ef05caa28e66dce108b'],
    ('ic-sketch', 'fillet', 'simulate'):
        ['0d38230d589a19407b67b34e5ea3c3baa4007ae43fe2696a435ee3d36b734d13',
         '2fc656807adc500b7fd02e4d74c4aadb5603352517fef40af8995225fe1ddd23'],
    ('ic-sketch', 'fillet', 'check'):
        ['890eadc3167e8073129b6bd4f89d0ad925ce2dac2fc7b844113d7508c613bd7d'],
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


@pytest.mark.parametrize("sample,strategy",
                         [(s, t) for s in PAIRS for t in STRATEGIES],
                         ids=[f"{s}/{t}" for s in PAIRS for t in STRATEGIES])
def test_simulate_traces_expand_to_the_v1_rows(sample, strategy, tmp_path):
    # each trace row read through the physics table is the row a version-1
    # report wrote for it, bit for bit
    argv, (report, _) = _argv(sample, "simulate",
                              _config(tmp_path, strategy), tmp_path)
    assert main(argv) == 0
    env, _, toolpath = cli._pipeline(cli.build_parser().parse_args(argv))
    result = cli.simulate(toolpath, env)
    assert expanded_traces(read_report(report.read_bytes())) \
        == v1_trace_rows(result.traces)


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
    from lmprint import spans
    counts = {"pairs": 0, "settled": 0}
    capsule_row, ink = spans._capsule_row, spans._ink

    def counted_row(y, *args):
        counts["pairs"] += y.size
        return capsule_row(y, *args)

    def counted_ink(col, ox, scale, ry, *args):
        counts["settled"] += ry.size  # a pair walked twice counts twice
        return ink(col, ox, scale, ry, *args)

    monkeypatch.setattr(spans, "_capsule_row", counted_row)
    monkeypatch.setattr(spans, "_ink", counted_ink)
    _simulate_coils(tmp_path, coil_svg(seed=11), "--pgm",
                    str(tmp_path / "coils.pgm"), "--scale", "0.01")
    assert counts["pairs"] > 10_000
    assert counts["settled"] <= 0.01 * counts["pairs"]


def test_long_coil_report_bytes_equal_json_dumps(tmp_path, monkeypatch):
    # the report writer against its oracle on a report of over 1000 traces,
    # whose trace table takes the table path, not the fallback
    def no_fallback(table):
        raise AssertionError("a report table failed the type check")

    monkeypatch.setattr(Table, "plain", no_fallback)
    out = _simulate_coils(tmp_path, coil_svg(seed=5, cells=3, turns=8))
    blob = out.read_bytes()
    report = json.loads(blob)
    assert len(report["traces"]) > 1000
    assert blob == (json.dumps(report, sort_keys=True, indent=2,
                               ensure_ascii=True) + "\n").encode("ascii")
