"""The three benchmark workloads.

Each workload is a closed loop with one caller: ``run_op`` starts the next
operation only after the previous one returned. A workload object is built
once per process (that is the set-up), and then offers

- ``run_op(i)``: run operation ``i`` and return (seconds, output), timing
  only the call the operation is about;
- ``check(i, output)``: a list of failure messages for that output, empty
  when it is correct;
- ``quality()``: the output quality the caller sees, as three positive
  numbers: PSL and GISR(p=10) in dB below the mainlobe, and the 2 Hz band
  energy fraction;
- ``start_point()``: the (params, OptimizerConfig) the optimizer starts
  from, or None where the workload does not optimize;
- ``optimizer_counts(output)``: the optimizer's exact counts for one
  operation, or None;
- ``min_ops``: the fewest operations a run makes, whatever its length.

``seed`` selects the LFSR initial register states of the generated codes:
state = (61 + seed * stride + i) mod (2**degree - 1) + 1, so seed 0 gives the
acceptance configuration (register state 62 for every degree). The package
only ever receives the generated codes.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
from time import perf_counter

import numpy as np

DEGREE6_PRIMITIVE = (0b1000010, 0b1011010, 0b1100000, 0b1100110, 0b1101100, 0b1110010)
MSEQ63_TAPS = 0b1100000
ACCEPTANCE_STATE = 62
BAND_HZ = 2.0  # null-to-null chip band 2/t_b, with t_b = 1 s in every code here
P = 10


def register_state(degree, seed, i=0, stride=1):
    return (ACCEPTANCE_STATE - 1 + seed * stride + i) % ((1 << degree) - 1) + 1


def _quality_of(m, w):
    a = m.acf(w)
    return {"psl_db": m.psl(a), "gisr_db": m.gisr(a, P),
            "sc_fraction": m.spectral_compactness(m.spectrum(w), BAND_HZ)}


def _positive_quality(rows):
    """Mean over waveforms of -PSL dB, -GISR dB and SC."""
    return {"psl_db_down": -float(np.mean([r["psl_db"] for r in rows])),
            "gisr_db_down": -float(np.mean([r["gisr_db"] for r in rows])),
            "sc_fraction": float(np.mean([r["sc_fraction"] for r in rows]))}


def _optimizer_counts(n_evaluations, K, accepted):
    """Exact optimizer counts of one run from its evaluation count and the
    accepted flags of its per-iteration trace records (log_every=1).

    Each iteration spends 4K evaluations on central-difference probes of the
    2K coefficients; the rest after the initial evaluation are line-search
    trials, of which one per accepted iteration is accepted.
    """
    iterations = len(accepted)
    trials = n_evaluations - 1 - 4 * K * iterations
    return {"optimizer.evaluations": n_evaluations,
            "optimizer.iterations": iterations,
            "optimizer.evals_per_iteration": (n_evaluations - 1) / iterations,
            "optimizer.linesearch_trials": trials,
            "optimizer.accept_ratio": sum(accepted) / trials}


def _near(name, value, target, tol):
    if abs(value - target) > tol:
        return [f"{name}={value:.4f} outside {target}+-{tol}"]
    return []


class OptimizeMseq63:
    """Criterion-4 optimize: mseq63 K=32 fit, p=10, delta=0.1, L=2016, capped.

    Operation i optimizes problem i mod PROBLEMS, one register state each, so
    the reported quality is a mean over PROBLEMS waveforms rather than the
    luck of one code. Every problem has the same (K, L) and iteration cap, so
    every operation does the same work.
    """

    name = "optimize-mseq63"
    PROBLEMS = 8
    MAX_ITERATIONS = 15
    K = 32
    N_SAMPLES = 63 * 32
    min_ops = PROBLEMS + 1  # every problem once, and one repeat to compare

    def __init__(self, m, seed):
        self.m = m
        self.states = [register_state(6, seed, i, self.PROBLEMS)
                       for i in range(self.PROBLEMS)]
        self.fits = [m.fit_fourier(m.generate_msequence(6, MSEQ63_TAPS, s), 63.0, self.K)
                     for s in self.states]
        self.cfg = m.OptimizerConfig(p=P, delta=0.1, max_iterations=self.MAX_ITERATIONS,
                                     n_samples=self.N_SAMPLES)
        m.objective(self.fits[0], self.cfg)  # first-call basis cache fill
        self.first = {}
        self.rows = {}


    def start_point(self):
        return self.fits[0], self.cfg

    def run_op(self, i):
        fit = self.fits[i % self.PROBLEMS]
        t0 = perf_counter()
        result = self.m.optimize(fit, self.cfg)
        return perf_counter() - t0, result

    def check(self, i, result):
        m = self.m
        k = i % self.PROBLEMS
        errors = [f"trace record {r.iteration}: constraint residual "
                  f"{r.constraint_residual:.3g} > 1e-12"
                  for r in result.trace if not r.constraint_residual <= 1e-12]
        digest = (result.params.coefficient_vector().tobytes(), result.params.a0,
                  m.trace_csv(result.trace))
        if k in self.first:
            if digest != self.first[k]:
                errors.append(f"problem {k}: optimize output differs from its first run")
            return errors
        self.first[k] = digest
        row = _quality_of(m, m.synthesize_mtsfm(result.params, self.N_SAMPLES))
        self.rows[k] = row
        if self.states[k] == ACCEPTANCE_STATE:  # criterion 4 at the acceptance code
            init = m.psl(m.acf(m.synthesize_mtsfm(self.fits[k], self.N_SAMPLES)))
            if not row["psl_db"] <= init - 8.0:
                errors.append(f"criterion 4: PSL {init:.2f} -> {row['psl_db']:.2f} dB "
                              "is less than an 8 dB drop")
            if not row["sc_fraction"] >= 0.96:
                errors.append(f"criterion 4: SC {row['sc_fraction']:.4f} < 0.96")
        return errors

    def quality(self):
        return _positive_quality(list(self.rows.values()))

    def optimizer_counts(self, result):
        return _optimizer_counts(result.n_evaluations, self.K,
                                 [t.accepted for t in result.trace[1:]])


class AnalyzeSweep:
    """One pass of compute_metrics over a fixed mix of codes and fits.

    The mix has 12 distinct (K, n_samples) synthesis pairs, more than the 8
    entries of the package's basis cache, so the cache misses here where the
    optimizer workload always hits.
    """

    name = "analyze-sweep"
    K_SWEEP = tuple(range(8, 65, 8))
    DOPPLER_HZ = np.linspace(-0.5, 0.5, 33)
    DEGREES = (7, 8, 9, 10)
    min_ops = 1

    def __init__(self, m, seed):
        self.m = m
        self.state6 = register_state(6, seed)
        self.states = {d: register_state(d, seed) for d in self.DEGREES}
        self.first = None
        self.rows = None

    def start_point(self):
        return None

    def run_op(self, i):
        m = self.m
        t0 = perf_counter()
        reports, ambiguities = [], []
        for taps in DEGREE6_PRIMITIVE:
            code = m.generate_msequence(6, taps, self.state6)
            pc = m.synthesize_pc(code, m.SamplingConfig(63.0))
            reports.append((f"d6-{taps:b}-pc", m.compute_metrics(pc, BAND_HZ, p=P)))
            for K in (32, 64):
                w = m.synthesize_mtsfm(m.fit_fourier(code, 63.0, K), 63 * 32)
                reports.append((f"d6-{taps:b}-k{K}", m.compute_metrics(w, BAND_HZ, p=P)))
        code = m.generate_msequence(6, MSEQ63_TAPS, self.state6)
        sweep = []
        for K in self.K_SWEEP:
            w = m.synthesize_mtsfm(m.fit_fourier(code, 63.0, K), 63 * 32)
            reports.append((f"sweep-k{K}", m.compute_metrics(w, BAND_HZ, p=P)))
            ambiguities.append(m.ambiguity(w, self.DOPPLER_HZ))
            sweep.append(w)
        for d in self.DEGREES:
            code = m.generate_msequence(d, None, self.states[d])
            n, K = code.n, m.min_harmonics(code.n)
            w = m.synthesize_mtsfm(m.fit_fourier(code, float(n), K), n * 32)
            reports.append((f"d{d}-k{K}", m.compute_metrics(w, BAND_HZ, p=P)))
        return perf_counter() - t0, (reports, ambiguities, sweep)

    def check(self, i, output):
        m = self.m
        reports, ambiguities, sweep = output
        digest = (tuple(reports),
                  tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in ambiguities))
        if self.first is not None:
            return [] if digest == self.first else ["analysis pass differs from the first pass"]
        self.first = digest
        self.waveforms = len(reports)
        errors = []
        for label, r in reports:
            if not 0.0 <= r.sc <= 1.0 or r.degenerate or not math.isfinite(r.psl_db):
                errors.append(f"{label}: invalid report {r}")
        zero = int(np.flatnonzero(self.DOPPLER_HZ == 0.0)[0])
        for w, amb in zip(sweep, ambiguities):
            if not np.array_equal(amb[zero], m.acf(w).values):
                errors.append("ambiguity zero-Doppler row differs from acf()")
        self.rows = [{"psl_db": r.psl_db, "gisr_db": r.gisr_db, "sc_fraction": r.sc}
                     for _, r in reports if not r.degenerate]
        if self.state6 == ACCEPTANCE_STATE:
            errors += self._acceptance(dict(reports))
        return errors

    def _acceptance(self, rep):
        errors = []
        for taps in DEGREE6_PRIMITIVE:  # criterion 2
            pc, k64, k32 = (rep[f"d6-{taps:b}-{v}"].sc for v in ("pc", "k64", "k32"))
            errors += _near(f"criterion 2 taps 0b{taps:b} SC(PC)", pc, 0.9027, 0.010)
            errors += _near(f"criterion 2 taps 0b{taps:b} SC(K=64)", k64, 0.9151, 0.015)
            errors += _near(f"criterion 2 taps 0b{taps:b} SC(K=32)", k32, 0.9885, 0.015)
            if not k32 > k64 > pc:
                errors.append(f"criterion 2 taps 0b{taps:b}: SC ordering broken")
        pc, k32 = rep[f"d6-{MSEQ63_TAPS:b}-pc"], rep[f"d6-{MSEQ63_TAPS:b}-k32"]
        errors += _near("criterion 3 PC ISR", pc.isr_db, -3.99, 1.5)  # criterion 3
        errors += _near("criterion 3 PC PSL", pc.psl_db, -15.91, 1.5)
        errors += _near("criterion 3 K=32 ISR", k32.isr_db, -1.43, 1.5)
        errors += _near("criterion 3 K=32 PSL", k32.psl_db, -10.73, 1.5)
        return errors

    def quality(self):
        return _positive_quality(self.rows)

    def optimizer_counts(self, output):
        return None


class ReproduceMseq63:
    """``reproduce mseq63 --max-iterations 2`` through cli.main, in process.

    The CLI pins the mseq63 code (taps 0b1100000, register state 62), so the
    seed does not change this workload's input. Every operation writes into
    the same out-dir: the provenance JSON embeds ``--out-dir``, so outputs
    are byte-identical only within one directory.
    """

    name = "reproduce-mseq63"
    FILES = frozenset(
        [f"{v}_{kind}" for v in ("pc", "init_k32", "init_k64", "opt_k32")
         for kind in ("metrics.json", "spectrum.csv", "acf.csv", "phase.csv")]
        + ["pc_code.txt", "fit_k32.json", "fit_k64.json", "opt_k32_result.json",
           "opt_k32_trace.csv", "summary.json"])
    min_ops = 1

    def __init__(self, m, out_dir):
        import mtsfm_cpm.cli as cli
        self.m = m
        self.cli = cli
        self.out_dir = out_dir
        self.argv = ["--out-dir", str(out_dir), "reproduce", "mseq63",
                     "--max-iterations", "2"]
        self.first = None
        self.rows = None

    def clear_output(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def start_point(self):
        m = self.m
        code = m.generate_msequence(6, MSEQ63_TAPS, ACCEPTANCE_STATE)
        cfg = m.OptimizerConfig(p=P, delta=0.1, max_iterations=2, n_samples=63 * 32)
        return m.fit_fourier(code, 63.0, 32), cfg

    def run_op(self, i):
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.argv)
        return perf_counter() - t0, rc

    def optimizer_counts(self, rc):
        """Counts of the CLI's optimize, read back from its result and trace files."""
        out = self.out_dir / "mseq63"
        result = json.loads((out / "opt_k32_result.json").read_text())
        rows = (out / "opt_k32_trace.csv").read_text().splitlines()[2:]
        return _optimizer_counts(result["n_evaluations"], len(result["params"]["alpha"]),
                                 [row.endswith(",1") for row in rows])

    def output_files(self):
        return sorted((self.out_dir / "mseq63").iterdir())

    def check(self, i, rc):
        if rc != 0:
            return [f"cli.main returned {rc}"]
        files = {p.name: p.read_bytes() for p in self.output_files()}
        digest = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
        if self.first is not None:
            return [] if digest == self.first else ["reproduce outputs are not byte-identical"]
        self.first = digest
        if set(files) != self.FILES:
            return [f"output files {sorted(files)} are not {sorted(self.FILES)}"]
        errors = []
        v = json.loads(files["summary.json"])["variants"]
        errors += _near("SC(pc)", v["pc"]["sc_fraction"], 0.9027, 0.01)
        errors += _near("SC(init_k64)", v["init_k64"]["sc_fraction"], 0.9151, 0.015)
        errors += _near("SC(init_k32)", v["init_k32"]["sc_fraction"], 0.9885, 0.015)
        if not v["opt_k32"]["gisr_db"] < v["init_k32"]["gisr_db"]:
            errors.append("opt_k32 GISR did not improve on init_k32")
        self.rows = [{"psl_db": v["opt_k32"]["psl_db"], "gisr_db": v["opt_k32"]["gisr_db"],
                      "sc_fraction": v["opt_k32"]["sc_fraction"]}]
        return errors

    def quality(self):
        return _positive_quality(self.rows)
