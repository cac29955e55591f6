"""Pinned `run` artifacts: byte-identical reports across engine rewrites.

The digests were taken from the simulator before memory was addressed
only by frame and line index; any change to report.json, the wear maps,
the logs or the estimates changes one of them.  Only the deepstack
generator (Python's `random.Random`) and the deterministic stream
generator are pinned: hotspot and queue draw from numpy's `Generator`,
whose streams may change across numpy versions.
"""

import hashlib

import pytest

from nvmwear.cli import main

RUNS = {
    "deepstack": ("--kind", "deepstack", "--writes", "20000", "--seed", "3",
                  "--n", "10", "--t", "2"),
    # a 2-page data-only pool remaps on every sample
    "stream_2page": ("--kind", "stream", "--writes", "20000", "--n", "1",
                     "--t", "1", "--text-pages", "0", "--data-pages", "2",
                     "--bss-pages", "0", "--stack-pages", "0"),
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
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_artifacts_match_pinned_digests(run, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *RUNS[run], "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in DIGESTS[run]}
    assert got == DIGESTS[run]
