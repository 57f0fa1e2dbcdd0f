"""Output digest: write a fixed comparison set of the package's outputs and
hash every file, so that "every output byte is unchanged" is checked by a
tool, not by hand.

The comparison set, each run in a fresh process on the package under --src:

- reproduce mseq63: in full, with --max-iterations 2, and with --format csv;
- the criterion-4 chain: gen-code (mseq63, register state 62), fit at K=32
  and optimize at 2016 samples;
- metrics --export spectrum,acf,waveform,waveform-raw,phase on that code
  file and on its K=32 params;
- the same metrics exports of barker13 at --samples-per-chip 9 --zero-pad 3;
- the stdout of each of those commands, as a file of the set;
- the ambiguity() bytes of the mseq63 K=32 waveform on the Doppler grids
  k/64 and (k + 1/2)/64 (k = -8..8) and on a mixed grid, and its acf() bytes.

Each command runs inside --out-dir with relative paths, so the JSON
provenance holds the same text wherever the out-dir is; reusing one out-dir
for both runs keeps even that equal. The manifest maps each file's path
relative to --out-dir to its sha256 and records every numeric leaf of each
JSON file. With --against, one line per file tells whether it is identical
to the reference manifest's, and for a JSON file that is not, the largest
absolute and relative change of each numeric field that moved; the exit
status is 1 if any file differs. To compare a change with its parent:

    git worktree add ../parent HEAD~1
    python tools/digest.py --src ../parent/src --out-dir /tmp/digest \\
        --manifest /tmp/parent.json
    python tools/digest.py --out-dir /tmp/digest --against /tmp/parent.json

A nonempty --out-dir is refused unless it holds an earlier digest run,
which is removed first.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKER = ".digest-run"
EXPORTS = "spectrum,acf,waveform,waveform-raw,phase"

# (name of the stdout file, CLI arguments), run in this order inside --out-dir
COMMANDS = [
    ("reproduce-full", ["--out-dir", "reproduce-full", "reproduce", "mseq63"]),
    ("reproduce-iter2", ["--out-dir", "reproduce-iter2", "reproduce", "mseq63",
                         "--max-iterations", "2"]),
    ("reproduce-csv", ["--out-dir", "reproduce-csv", "--format", "csv", "reproduce", "mseq63"]),
    ("gen-code-mseq63", ["gen-code", "mseq", "--degree", "6", "--taps", "0b1100000",
                         "--seed", "62", "-o", "criterion4/mseq63.txt"]),
    ("fit-k32", ["--out-dir", "criterion4", "fit", "criterion4/mseq63.txt", "-K", "32"]),
    ("optimize-k32", ["--out-dir", "criterion4", "optimize", "criterion4/mseq63_k32.json",
                      "--samples", "2016"]),
    ("metrics-mseq63", ["--out-dir", "metrics-mseq63", "metrics", "criterion4/mseq63.txt",
                        "--export", EXPORTS]),
    ("metrics-k32", ["--out-dir", "metrics-k32", "metrics", "criterion4/mseq63_k32.json",
                     "--export", EXPORTS]),
    ("gen-code-barker13", ["gen-code", "barker", "--length", "13",
                           "-o", "barker13/barker13.txt"]),
    ("metrics-barker13", ["--out-dir", "barker13", "--samples-per-chip", "9", "--zero-pad", "3",
                          "metrics", "barker13/barker13.txt", "--export", EXPORTS]),
]

# Run as a script in the package's process: argv[1] is the directory to fill.
AMBIGUITY = """
import sys
from pathlib import Path
import numpy as np
from mtsfm_cpm import acf, ambiguity, fit_fourier, generate_msequence, synthesize_mtsfm

out = Path(sys.argv[1])
out.mkdir()
code = generate_msequence(6, 0b1100000, 62)
w = synthesize_mtsfm(fit_fourier(code, 63.0, 32), 63 * 32)
k = np.arange(-8, 9)
grids = {"on-bin": k / 64, "off-bin": (k + 0.5) / 64,
         "mixed": np.array([0.0, 1 / 64, -1 / 64, 0.5 / 64, -0.5 / 64, 0.3 / 64,
                            1 / 64, 1.25 / 64, -3.7 / 64, 0.0])}
for name, grid in grids.items():
    (out / f"{name}.c16").write_bytes(ambiguity(w, grid).astype("<c16").tobytes())
a = acf(w)
(out / "acf-lags.f64").write_bytes(a.lags.astype("<f8").tobytes())
(out / "acf-values.c16").write_bytes(a.values.astype("<c16").tobytes())
"""


def _prepare(out_dir):
    """Make out_dir an empty directory holding only the run marker."""
    if out_dir.exists():
        if any(out_dir.iterdir()) and not (out_dir / MARKER).exists():
            raise SystemExit(f"error: {out_dir} is not empty and holds no earlier digest run")
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    (out_dir / MARKER).write_text("")


def write_set(src, out_dir):
    """Run the comparison set on the package in src, writing into out_dir."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    found = subprocess.run([sys.executable, "-c", "import mtsfm_cpm; print(mtsfm_cpm.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if Path(src).resolve() not in Path(found).resolve().parents:
        raise SystemExit(f"error: mtsfm_cpm was imported from {found}, not from {src}")
    _prepare(out_dir)
    (out_dir / "stdout").mkdir()
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "mtsfm_cpm.cli", *argv], cwd=out_dir,
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            raise SystemExit(f"error: {name} exited {proc.returncode}: {proc.stderr.strip()}")
        (out_dir / "stdout" / f"{name}.txt").write_text(proc.stdout)
    subprocess.run([sys.executable, "-c", AMBIGUITY, "ambiguity"], cwd=out_dir, env=env,
                   check=True)


def numeric_leaves(obj, path=""):
    """{path: value} of every int or float leaf of a parsed JSON document;
    list entries are path[i], object members path.key (bools are no numbers)."""
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {path: obj}
    else:
        return {}
    leaves = {}
    for p, v in items:
        leaves.update(numeric_leaves(v, p))
    return leaves


def manifest(out_dir):
    """{"sha256": {path: digest}, "numbers": {path of a JSON file: leaves}}."""
    files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != MARKER)
    sha, numbers = {}, {}
    for p in files:
        rel = p.relative_to(out_dir).as_posix()
        data = p.read_bytes()
        sha[rel] = hashlib.sha256(data).hexdigest()
        if p.suffix == ".json":
            numbers[rel] = numeric_leaves(json.loads(data))
    return {"sha256": sha, "numbers": numbers}


def _moved_fields(before, after):
    """{field: (largest |change|, largest |change| / |before|)} over the
    numeric leaves present in both whose values differ; a field is a leaf
    path with its list indices dropped, so alpha[0..K-1] is one field."""
    moved = {}
    for path in sorted(before.keys() & after.keys()):
        a, b = before[path], after[path]
        if a == b or (a != a and b != b):  # equal, or both NaN
            continue
        change = abs(b - a)
        rel = change / abs(a) if a else math.inf
        field = re.sub(r"\[\d+\]", "[]", path)
        worst = moved.get(field, (0.0, 0.0))
        moved[field] = (max(worst[0], change), max(worst[1], rel))
    return moved


def compare(reference, current):
    """(one line per file, number of files that differ) of current against
    the reference manifest."""
    ref, cur = reference["sha256"], current["sha256"]
    lines, differ = [], 0
    for rel in sorted(ref.keys() | cur.keys()):
        if rel in ref and ref[rel] == cur.get(rel):
            lines.append(f"{rel}: identical")
            continue
        differ += 1
        if rel not in cur:
            lines.append(f"{rel}: missing")
        elif rel not in ref:
            lines.append(f"{rel}: new")
        else:
            moved = _moved_fields(reference["numbers"].get(rel, {}),
                                  current["numbers"].get(rel, {}))
            detail = "; ".join(f"{field} abs {change:.3g} rel {rel_change:.3g}"
                               for field, (change, rel_change) in moved.items())
            lines.append(f"{rel}: differs" + (f": {detail}" if detail else ""))
    return lines, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the mtsfm_cpm package (default: this tree's)")
    parser.add_argument("--out-dir", required=True, help="directory the set is written to")
    parser.add_argument("--manifest", default=None, help="file to save this run's manifest to")
    parser.add_argument("--against", default=None, help="reference manifest to compare with")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir).resolve()
    write_set(Path(args.src).resolve(), out_dir)
    current = manifest(out_dir)
    if args.manifest:
        Path(args.manifest).write_text(json.dumps(current, indent=1, sort_keys=True))
    print(f"{len(current['sha256'])} files written to {out_dir}")
    if not args.against:
        return 0
    lines, differ = compare(json.loads(Path(args.against).read_text()), current)
    print("\n".join(lines))
    print(f"{len(lines) - differ} of {len(lines)} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
