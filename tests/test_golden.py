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
        ['232af6b74008da07244a3d34012ef75336b80bea9d89677393e741c2cd78d879'],
    ('straight-line', 'lift-and-retap', 'simulate'):
        ['80d2ad0fcf02a9ad3c9d705a6e340a5f205188b2b3c922b6c4244cc6e267294a',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'lift-and-retap', 'check'):
        ['bf39c0b95d4e0dce1ab63877aa08bac66b66664118697faa450167845b1bc76f'],
    ('straight-line', 'slowdown', 'plan'):
        ['946ee47f213d68ab82d9b2c85d0bc6b8e941fff0dd3d5bbf5b7b8050b7db18c3'],
    ('straight-line', 'slowdown', 'simulate'):
        ['b4db2d3c1b0c94bb4aac4d279cc5d07ba94cd1d05a3caf576643122fe3221f88',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'slowdown', 'check'):
        ['bf39c0b95d4e0dce1ab63877aa08bac66b66664118697faa450167845b1bc76f'],
    ('straight-line', 'fillet', 'plan'):
        ['dee130728bb05932a6b8b36117bc3220a3322661ad593c647cf920c664aee4ef'],
    ('straight-line', 'fillet', 'simulate'):
        ['4708e0fb7c995798ba0df2c9852009e238d9898405f1c817711e56334bcb9852',
         '404cee25846894f8690f96a5de16b003539f7d6a8fa07cc4b3a7a1aae559547f'],
    ('straight-line', 'fillet', 'check'):
        ['bf39c0b95d4e0dce1ab63877aa08bac66b66664118697faa450167845b1bc76f'],
    ('square', 'lift-and-retap', 'plan'):
        ['c93a7b244248947b7beb67245d611fc55562cd0a663b286ee9ec1adc4018c69c'],
    ('square', 'lift-and-retap', 'simulate'):
        ['4569fdee679f949534a69c0fa1c604559e59fc3ea289e8c84d2f3b980edd9987',
         '42482efe5c93d8c032b0a956ad18a13a6d6000286516e9ce62fa60af5b967c8d'],
    # the square's corner:corner pair is one pad paired with itself: 0 ohm
    ('square', 'lift-and-retap', 'check'):
        ['02b882b74d61e164bf9339cee0c654fe91a7516282d8fff4013f6d4a608f232f'],
    ('square', 'slowdown', 'plan'):
        ['972916db09d6feaf90fd4385affcb9849f35bae56a9a6b1d12c1e20d1de6c086'],
    ('square', 'slowdown', 'simulate'):
        ['dbf42f89d426ddc0fc8e18aeb10194e9ff5f22f56d32f8e365c3f56db88f9665',
         '4fa14f6e5c91fb3970664bb6a52bd09cc4a5ff46b0feb7b9b7fa193076299959'],
    ('square', 'slowdown', 'check'):
        ['f30b4a0bfb44819708b5e8abf6745fb40cea36a089628ee8a9537c7e548de51c'],
    ('square', 'fillet', 'plan'):
        ['3f6fc334d3b71043cba2c25b8c51658eaf2348ff6655931ba8a688745c9f50da'],
    ('square', 'fillet', 'simulate'):
        ['7705c656a2e4441644b596538c6e48bc416d23badcc5a0e253ed6359e0ee49df',
         'e0bcd4088707b4f1eca95f8ab1f90e8ac01eaf608afcd03cf54e97d6acad49be'],
    ('grid-antenna', 'lift-and-retap', 'plan'):
        ['75e0e48e208ecae42dde91098747d51beff1d133ba64adddc61b6e52ec02fb28'],
    ('grid-antenna', 'lift-and-retap', 'simulate'):
        ['c3233f1ca3776dfb57bd47ae8a5f84ede06e0f21460eec340edef76b1a41b2ff',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'lift-and-retap', 'check'):
        ['4ea2bfea88d164f519d8c22daf7c7f710aec85982c0851cba7db82e66e4e3d3f'],
    ('grid-antenna', 'slowdown', 'plan'):
        ['1ff05c31bc21a9a310e75f9679f648ef308af6201a5b6534917a02b00ad86488'],
    ('grid-antenna', 'slowdown', 'simulate'):
        ['21699598be71281c5042ba3e4e5f143f8693b933d7a06c54b0e5942c18acd436',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'slowdown', 'check'):
        ['4ea2bfea88d164f519d8c22daf7c7f710aec85982c0851cba7db82e66e4e3d3f'],
    ('grid-antenna', 'fillet', 'plan'):
        ['519b03cfa8d08d20b85fa79a17699326bdbb0cb7565a78669fa8675e0ffb6906'],
    ('grid-antenna', 'fillet', 'simulate'):
        ['38395dff1999bd685bb19bcc089e8c900dce4a76fc6ddec05a65bb5377d1e8bd',
         '057182fe19ac14edd791b343c7d0bfe54d2d86a2067528711782205a4d42caa1'],
    ('grid-antenna', 'fillet', 'check'):
        ['4ea2bfea88d164f519d8c22daf7c7f710aec85982c0851cba7db82e66e4e3d3f'],
    ('ic-sketch', 'lift-and-retap', 'plan'):
        ['799a8373d2818b7af87ccd82b2732624b2b4cdc4dbc445c74fd4c5d4353b8bf1'],
    ('ic-sketch', 'lift-and-retap', 'simulate'):
        ['9ce5f2a28840f860a0ffc036236f62f5904bf4d986087de387d11c484e044ecf',
         '4c4c7c22ce0a85e9f27b2ef1961d3286d90f87cb4823476b5db9300a3033e2c5'],
    ('ic-sketch', 'lift-and-retap', 'check'):
        ['7854f0c384a6761364b3ee60db652974dfea3fe9ac4351f2d56311d36ca2909a'],
    ('ic-sketch', 'slowdown', 'plan'):
        ['6214e13c2cc440941f04c40bd048d56411a45cbd09ede7cc436afbf459d70872'],
    ('ic-sketch', 'slowdown', 'simulate'):
        ['31ab18732be7971a2a57624ab7e7896ea1ca5d8a508b3c2550809954afd4d204',
         'd09deb3613ee7a286d3b69b052cfc514a4cb0d505e847d23bc1cde90fe6ccdc9'],
    ('ic-sketch', 'slowdown', 'check'):
        ['35e58aea33f0cac14d4ac489fa196de10cfa9e124b67bd84a7b07661c787e9f0'],
    ('ic-sketch', 'fillet', 'plan'):
        ['b982f8215a9745d15e71c3b2d353826d96d712d0b89258bcf24d53a7974d147f'],
    ('ic-sketch', 'fillet', 'simulate'):
        ['c40cf14f769a150ed0e248ce969e6ec9987ef6e1fb6e78d8c1d43d994d440d7d',
         '2fc656807adc500b7fd02e4d74c4aadb5603352517fef40af8995225fe1ddd23'],
    ('ic-sketch', 'fillet', 'check'):
        ['754de033966250003d509aed8c0842bb8a6440783f61edfd47c74d1a051a2846'],
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


def test_long_coil_report_bytes_equal_json_dumps(tmp_path):
    # the report writer against its oracle on a report of over 1000 traces,
    # whose trace table takes the table path
    out = _simulate_coils(tmp_path, coil_svg(seed=5, cells=3, turns=8))
    blob = out.read_bytes()
    report = json.loads(blob)
    assert len(report["traces"]) > 1000
    assert blob == (json.dumps(report, sort_keys=True, indent=2,
                               ensure_ascii=True) + "\n").encode("ascii")
