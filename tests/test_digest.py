"""The comparison half of the output digest, tools/digest.py, on small
hand-built manifests and files: no command of the package is run."""

import hashlib
import importlib.util
import json
from pathlib import Path

DIGEST_PY = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def digest():
    spec = importlib.util.spec_from_file_location("digest", DIGEST_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numeric_leaves_are_the_numbers_of_a_json_document():
    doc = {"a": 1, "b": [1.5, True, None, "s"], "c": {"d": [[-0.0]]}, "e": False}
    assert digest().numeric_leaves(doc) == {"a": 1, "b[0]": 1.5, "c.d[0][0]": -0.0}


def test_manifest_hashes_every_file_and_reads_the_numbers_of_json(tmp_path):
    d = digest()
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "r.json").write_text(json.dumps({"x": [2.0, 3], "name": "k"}))
    (tmp_path / "t.csv").write_text("t,v\n0.5,1.0\n")
    (tmp_path / d.MARKER).write_text("")
    m = d.manifest(tmp_path)
    assert m["sha256"] == {
        "sub/r.json": hashlib.sha256((tmp_path / "sub" / "r.json").read_bytes()).hexdigest(),
        "t.csv": hashlib.sha256(b"t,v\n0.5,1.0\n").hexdigest()}
    assert m["numbers"] == {"sub/r.json": {"x[0]": 2.0, "x[1]": 3}}
    lines, differ = d.compare(m, m)
    assert lines == ["sub/r.json: identical", "t.csv: identical"] and differ == 0


def test_compare_names_each_moved_field_by_its_largest_changes():
    nan = float("nan")
    reference = {"sha256": {"r.json": "1", "s.csv": "2", "gone.txt": "3", "k.json": "5"},
                 "numbers": {"r.json": {"p": 10, "alpha[0]": 1.0, "alpha[1]": 2.0,
                                        "beta[0]": -4.0, "psl": nan, "zero": 0.0},
                             "k.json": {"p": 10}}}
    current = {"sha256": {"r.json": "9", "s.csv": "2", "new.txt": "4", "k.json": "6"},
               "numbers": {"r.json": {"p": 10, "alpha[0]": 1.5, "alpha[1]": 2.25,
                                      "beta[0]": -4.0, "psl": nan, "zero": 1e-3},
                           "k.json": {"p": 10}}}
    lines, differ = digest().compare(reference, current)
    assert lines == ["gone.txt: missing",
                     "k.json: differs",  # a text field moved, no number did
                     "new.txt: new",
                     "r.json: differs: alpha[] abs 0.5 rel 0.5; zero abs 0.001 rel inf",
                     "s.csv: identical"]
    assert differ == 4
