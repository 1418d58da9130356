"""The standard artifacts are the ones tests/baselines/artifacts.json
records, byte for byte, on the toolchain it names."""

import json

from artifact_manifest import BASELINE, manifest, moved


def test_artifacts_match_manifest(tmp_path):
    # on another numpy or BLAS this fails and says so; it does not skip
    assert moved(json.loads(BASELINE.read_text()), manifest(tmp_path)) == []


def test_moved_names_each_entry():
    want = {"toolchain": {"numpy": "2.0"},
            "runs": {"r": {"sha256": {"a.json": "00"}, "values": {"mu": "0.5"}}}}
    got = {"toolchain": {"numpy": "2.1"},
           "runs": {"r": {"sha256": {"a.json": "00", "b.csv": "11"},
                          "values": {"mu": "0.50000000000000011"}}}}
    assert moved(want, got) == [
        "r/b.csv: None -> '11'",
        "r/mu: '0.5' -> '0.50000000000000011'",
        "toolchain/numpy: '2.0' -> '2.1'",
    ]
