"""Pinned `run` artifacts: byte-identical reports across engine rewrites.

The digests were taken from the simulator before memory was addressed
only by frame and line index; any change to report.json, the wear maps,
the logs or the estimates changes one of them.  The `report` histograms
and the flat report.csv of the deepstack run were pinned before `report`
read runs back through `MemoryLayout` and `MemorySpace`.  Only the
deepstack generator (Python's `random.Random`) and the deterministic
stream generator are pinned: hotspot and queue draw from numpy's
`Generator`, whose streams may change across numpy versions.  The
hotspot trace that `gen` writes is pinned all the same, as the benchmark's
CI digests already rest on that stream; its digest was taken while the
generator still drew its category floats in one call.  The
4,106-page stream run pins replay on a memory of thousands of pages; its
digests were taken while every period was still charged with a bincount
over the whole of memory.  The deepstack run with `--no-coarse` and with
`--no-fine` was pinned while replay still kept a list of per-period
stack shifts.  Payload words reach no run artifact, so the
deepstack trace that `gen` writes is pinned as well; its digest was taken
while the generator still collected its events in Python lists.  The
demos' output was pinned while they still gathered regions into copies.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nvmwear.cli import main

RUNS = {
    "deepstack": ("--kind", "deepstack", "--writes", "20000", "--seed", "3",
                  "--n", "10", "--t", "2"),
    # a 2-page data-only pool remaps on every sample
    "stream_2page": ("--kind", "stream", "--writes", "20000", "--n", "1",
                     "--t", "1", "--text-pages", "0", "--data-pages", "2",
                     "--bss-pages", "0", "--stack-pages", "0"),
    # 4,096 data pages; a remap on every sample, relocations every tick
    "stream_bigmem": ("--kind", "stream", "--writes", "200000", "--n", "100",
                      "--t", "1", "--data-pages", "4096"),
    # the deepstack run with one leveler: stack translation without
    # remaps, and remaps without stack translation
    "deepstack_no_coarse": ("--kind", "deepstack", "--writes", "20000",
                            "--seed", "3", "--n", "10", "--t", "2",
                            "--no-coarse"),
    "deepstack_no_fine": ("--kind", "deepstack", "--writes", "20000",
                          "--seed", "3", "--n", "10", "--t", "2",
                          "--no-fine"),
}

DIGESTS = {
    "deepstack": {
        "report.json": "57f0b81ee341cabd63a83bca5aa91e98b9d519d0d8b6804d25c69bd31066ee37",
        "baseline_wear.csv": "ca704ef3125804fd8cf0917bdaae5b69ec4fac3d94cfe7d3c22c435435466180",
        "leveled_wear.csv": "13090c26303a26362175fa9d0e5480ccd64123d6f1efdd65913321a6a5bfb94f",
        "sample_log.csv": "32f5f1d8519b74dd4c734b1a74706216b9ebbf884057432c02edf7fff1222c38",
        "remap_log.csv": "81dda19c116ff4dca2603960271b22d41760e704d1feef3f302465c69f9130cb",
        "relocation_log.csv": "fe61affcac11fc3222b279a1a36ace255f0bf6d9bc0dc79716a58dab335d520c",
        "estimates.csv": "2d19f10afd9b9260b5c43730fe5afc625774f8addc7750ec289849150be6199e",
    },
    "stream_2page": {
        "report.json": "d56b30fb1d57665d50e8d1fc685af370c0a5a50bb018c6ceb6b5790ba03c17ce",
        "baseline_wear.csv": "dfeac481ef69bbb1fdb9de03e47ea58016cc6a2c6e1dd5b7dc6f881f6e5c8ac4",
        "leveled_wear.csv": "0c16afbaa98b1e3eba66390420d2896b84b6a6662dbd477f8934422491c29a93",
        "sample_log.csv": "a5fb340e6ab0e439fafdac9e6f3683ca15edec78bf21a0ea6aa329f224fd2ae4",
        "remap_log.csv": "bb667d9538d8481950aa8ad01542ec9c29d35402fff068819e5a3af709cc999d",
        "relocation_log.csv": "ed07ace64130edf8a261ea7a0dc7e701a634c3c3681fb451d9ab2bc4f16b1856",
        "estimates.csv": "2d307572521836897661396f8375f7b4ac4567b02ea0e1dfaa153abeef9d3e5e",
    },
    "stream_bigmem": {
        "report.json": "2d68143ff58e3d8a2043b696e3d4d012f93bfda58f72c275125b0fc0050171d3",
        "baseline_wear.csv": "44cd64ae87ac6f433ba0f0f8c0a870eb1a8c5c5256e2b8748d30c78003248bed",
        "leveled_wear.csv": "60dd683e5a1ebf42d8904fc8cb6b6ee65a832cfb5b089dda5f1ac5772e2fd034",
        "sample_log.csv": "7959e44b3212261a198110076eb40aa76bb07c52b06ac5e75937ca967b47b0b3",
        "remap_log.csv": "1e7bc151353872294a3e1c8c68349fe2b8e89b7e0312759847f06019c94d2a15",
        "relocation_log.csv": "5be48c8012f5cc5e39343efe3a0d1bb15dcdb512bc33ae8c5edd75867310c345",
        "estimates.csv": "4fecbf0d52c63509fecc65cec804c22742d0c91f3522a416a4357680a762a898",
    },
    # relocations never depend on remaps, so the fine-only relocation log
    # is the deepstack run's
    "deepstack_no_coarse": {
        "report.json": "2ce8a723217f21c4cd4c966c9b03c1a0f6bd2d6df4511ff31199082ac515924c",
        "baseline_wear.csv": "ca704ef3125804fd8cf0917bdaae5b69ec4fac3d94cfe7d3c22c435435466180",
        "leveled_wear.csv": "69009decdfa5aa1969ba3a16716eef94c25f4a91482ce0b284d50ad6570b00b7",
        "sample_log.csv": "0388cc05e8724d883b8d2b65cac6e9de250175436ae7161d44d7b03762ce18f3",
        "remap_log.csv": "47796a75ae772fdcc2e4940099bf6f7b613fea0cec69cad97cf51e7f96aff763",
        "relocation_log.csv": "fe61affcac11fc3222b279a1a36ace255f0bf6d9bc0dc79716a58dab335d520c",
        "estimates.csv": "5ba4f748d6827470fcf7662423261ca4080e95225d4921f799db40e3369b56de",
    },
    "deepstack_no_fine": {
        "report.json": "b6782ce6e4eccc83749de9ae64c4c81e460c71dc6b561bef9b6ba652a90cfa00",
        "baseline_wear.csv": "ca704ef3125804fd8cf0917bdaae5b69ec4fac3d94cfe7d3c22c435435466180",
        "leveled_wear.csv": "c158e4457fc21e221e917d6d1fc080c237ffe9b8c2837b8a9e7136c7383d9d8a",
        "sample_log.csv": "2ab167589c27c400b9b175d007a433dd8d082a3b52b6eec0493e6c2789eeb9f7",
        "remap_log.csv": "a8b7d70881862c045f904ad27a7c8943a9aad6c18910d880354ce5a790686443",
        "relocation_log.csv": "ed07ace64130edf8a261ea7a0dc7e701a634c3c3681fb451d9ab2bc4f16b1856",
        "estimates.csv": "d3a5b8f400afa57897d8701077c51351a671c86b70c529dd5b0697cc14264a6c",
    },
}

# `gen` of the deepstack run's trace, payload words included
GEN_DEEPSTACK = \
    "e2e61db031786ef45320ebfd676585a2305e60625a79414db70ccf96b4e558b8"

# `gen` of a hotspot trace whose category draws cross a chunk boundary
GEN_HOTSPOT = \
    "1b54f4e5634c3e35054e28e7fa56e16c4f6aabb637488c5a0d8e8c6cb5fac13b"

# `gen` of the other streamed kinds, 200,003 writes (not a chunk multiple)
GEN_STREAMED = {
    "stream": "91f722c0b4f3c43bb77029530ba5ce1ca45d729acd17e52d3e0cc46282a3faf7",
    "queue": "3df8e29dc9331495a3c3263081f2e947b9e1743a863832af39221d4e35eece1d",
}

REPORT_CSV = "f30bb0eb357d24ad572b0c7a04f26e98cbb0451bdde800cece4bff287cc65ba5"

# `report` flags -> digest of every file it writes for the deepstack run
REPORTS = {
    (): {
        "text.csv": "91cdf67d7947174dd51fe1ea6ffddd7765ac8ea1a633d682b1a24dec5257eec8",
        "data.csv": "a312dc7825fa02ae198dbe1824668cbc5d3c74b5363752b0ade6db70602057d3",
        "bss.csv": "51f7e53576e1c67a63540cb149ff6dc893b0b80ea03b64aa636769478687d024",
        "stack.csv": "ff4794d0473a1ed01b501ce31df0418d551499b4fc427e9a118de28ef3f8c330",
    },
    ("--bins", "log2", "--segment", "stack"): {
        "stack_log2.csv": "43d42a46e025316e83a661bc6a6eb283feebe3562170453d8f9fed7a457304e3",
    },
}


# stdout of each demo, run as `PYTHONPATH=src python -W error demos/NAME`
DEMOS = {
    "01_trace_zoo.py": "4d045a1f27aa534c6adab2daaefdc9c0af5ebca15c84c26e6dbebf3ce65cd64e",
    "02_sampling_accuracy.py": "42d78e3697f14398bbcab6717366cbabfe009b4014622d1e2e8762edbef92893",
    "03_coarse_rotation.py": "1eb948cf2c00c3767db44cb92d5f5a2445f67687bfde2753ddc300e1cb54e85e",
    "04_stack_carousel.py": "fbac68926005c8aa0f3242dc556cda0d70498537a6d67378739be22440f3a704",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_artifacts_match_pinned_digests(run, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *RUNS[run], "--out", str(out)]) == 0
    got = {name: sha256(out / name) for name in DIGESTS[run]}
    assert got == DIGESTS[run]


def test_report_outputs_match_pinned_digests(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(["run", *RUNS["deepstack"], "--format", "csv",
                 "--out", str(run_dir)]) == 0
    assert sha256(run_dir / "report.csv") == REPORT_CSV
    for i, (flags, digests) in enumerate(REPORTS.items()):
        out = tmp_path / ("report%d" % i)
        assert main(["report", "--run", str(run_dir), *flags,
                     "--out", str(out)]) == 0
        assert {p.name: sha256(p) for p in out.iterdir()} == digests


def test_generated_deepstack_trace_matches_pinned_digest(tmp_path, capsys):
    out = tmp_path / "deepstack.trace"
    assert main(["gen", "--kind", "deepstack", "--writes", "20000",
                 "--seed", "3", "--out", str(out)]) == 0
    assert sha256(out) == GEN_DEEPSTACK


def test_generated_hotspot_trace_matches_pinned_digest(tmp_path, capsys):
    out = tmp_path / "hotspot.trace"
    assert main(["gen", "--kind", "hotspot", "--writes", "200003",
                 "--seed", "3", "--out", str(out)]) == 0
    assert sha256(out) == GEN_HOTSPOT


@pytest.mark.parametrize("kind", sorted(GEN_STREAMED))
def test_generated_trace_matches_pinned_digest(kind, tmp_path, capsys):
    out = tmp_path / (kind + ".trace")
    assert main(["gen", "--kind", kind, "--writes", "200003",
                 "--seed", "3", "--out", str(out)]) == 0
    assert sha256(out) == GEN_STREAMED[kind]


def test_trace_round_trip_matches_the_deepstack_digests(tmp_path, capsys):
    # report.json names the trace file, so only it may differ
    trace = tmp_path / "deepstack.trace"
    assert main(["gen", *RUNS["deepstack"][:6], "--out", str(trace)]) == 0
    out = tmp_path / "out"
    assert main(["run", "--trace", str(trace), *RUNS["deepstack"][6:],
                 "--out", str(out)]) == 0
    want = {name: digest for name, digest in DIGESTS["deepstack"].items()
            if name != "report.json"}
    assert {name: sha256(out / name) for name in want} == want


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_output_matches_pinned_digest(demo):
    root = Path(__file__).resolve().parents[1]
    assert {p.name for p in (root / "demos").glob("*.py")} == set(DEMOS)
    out = subprocess.run(
        [sys.executable, "-W", "error", str(root / "demos" / demo)],
        check=True, capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src"))).stdout
    assert hashlib.sha256(out).hexdigest() == DEMOS[demo]
