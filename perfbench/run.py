"""specdens benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload poly-1m --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory. Each workload (see ``workloads.py``) repeats set-up, runs one
warm-up round, then repeats its round of estimates for ``--seconds`` seconds.
Between rounds, batches of bare SpMVs on the same instance calibrate the cost
of one MATVEC. Every estimate is checked; a failed check or a raised estimate
counts in ``failed`` and makes the exit code 1.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: median seconds of one set-up (load or generation, spectral
  interval, and the dense oracle on compare-750), repeated at least 3 times
  and for at least 1 s;
- ``wall_s``: median seconds of one round;
- ``overhead_factor``: wall_s / (nominal MATVEC budget x bare-SpMV seconds),
  the SpMV time taken from the fastest calibration batch: other tenants of a
  shared machine slow a core by up to ~1.5x for seconds at a time, which
  flips a median of short batches between two levels;
- ``matvecs``: MATVECs one round spent, counted by a ``MatvecCounter``
  around the instance;
- ``peak_rss_mb``: peak resident memory of this process, set-up included;
- ``pass_frac``: share of checked units that passed (1 - fail fraction);
- ``error_geomean``: geometric mean of the estimates' errors against the
  exact spectrum (sup-Gaussian at sigma = 0.35; on compare-750 the
  ``error_mean`` of every scored method x degree row).

``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of ``LAYER_METRICS`` from the traced ones, plus
``trace.overhead_frac`` = traced / untraced median round - 1. The spans are
written to ``perfbench/out/<workload>.spans.npz``.

The line before the result is a JSON record of the machine, the instance,
the calibration, every round time and every failed check.
"""

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("poly-1m", "lanczos-90k", "compare-750")
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
# One BLAS thread: on a shared two-core machine a second BLAS thread makes
# every dense product wait for the slower of two contended cores, which made
# round times bimodal from run to run.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# bare-SpMV calibration: batches of at least BATCH_SECONDS, CALIBRATION_BATCHES
# before the first round and ROUND_BATCHES between rounds, so calibration and
# rounds see the same machine state
BATCH_SECONDS = 0.02
CALIBRATION_BATCHES = 20
ROUND_BATCHES = 5

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("overhead_factor", "ratio"),
    ("matvecs", "count"), ("peak_rss_mb", "MiB"), ("pass_frac", "frac"),
    ("error_geomean", "1/lambda"),
)

# Per-layer metric, unit, the span and statistic it is read from, and the
# end-to-end metric it should move. "self_s" and "calls" are per traced round;
# "inclusive_s" is per traced set-up, children included. Entries without a
# span are derived in layer_metrics.
LAYER_METRICS = (
    ("stochastic.draw_s", "s", "stochastic.draw", "self_s", "wall_s on poly-1m"),
    ("stochastic.draws", "count", "stochastic.draw", "calls", "wall_s on poly-1m"),
    ("matrix.spmv_s", "s", "matrix.spmv", "self_s", "wall_s, overhead_factor on poly-1m"),
    ("matrix.spmv_calls", "count", "matrix.spmv", "calls", "wall_s, overhead_factor on poly-1m"),
    ("matrix.spmv_gbps_computed", "GB/s", None, None, "wall_s, overhead_factor on poly-1m"),
    ("matrix.spmv_bw_frac", "ratio", None, None, "wall_s, overhead_factor on poly-1m"),
    ("matrix.map_s", "s", "matrix.map", "self_s", "wall_s on poly-1m"),
    ("matrix.load_s", "s", "matrix.load", "inclusive_s", "setup_s on poly-1m"),
    ("matrix.interval_s", "s", "matrix.interval", "inclusive_s", "setup_s on poly-1m"),
    ("kpm.moments_s", "s", "kpm.moments", "self_s", "wall_s on poly-1m"),
    ("kpm.eval_s", "s", "kpm.eval", "self_s", "wall_s on compare-750"),
    ("dgl.eval_s", "s", "dgl.eval", "self_s", "wall_s on compare-750"),
    ("lanczos.factorize_s", "s", "lanczos.factorize", "self_s",
     "wall_s, overhead_factor, peak_rss_mb on lanczos-90k"),
    ("lanczos.factorize_calls", "count", "lanczos.factorize", "calls",
     "wall_s, overhead_factor, peak_rss_mb on lanczos-90k"),
    ("lanczos.ritz_s", "s", "lanczos.ritz", "self_s", "wall_s on compare-750"),
    ("lanczos.resolvent_s", "s", "lanczos.resolvent", "self_s", "wall_s on compare-750"),
    ("lanczos.blur_s", "s", "lanczos.blur", "self_s", "wall_s on compare-750"),
    ("lanczos.cdos_s", "s", "lanczos.cdos", "self_s", "wall_s on compare-750"),
    ("reference.eigensolve_s", "s", "reference.eigensolve", "inclusive_s", "setup_s on compare-750"),
    ("reference.exact_blur_s", "s", "reference.exact_blur", "self_s", "wall_s on compare-750"),
    ("metrics.sup_gaussian_s", "s", "metrics.sup_gaussian", "self_s", "wall_s on compare-750"),
    ("metrics.sup_gaussian_calls", "count", "metrics.sup_gaussian", "calls",
     "wall_s on compare-750"),
    # the compare layer's spans are its dispatch calls and the round itself
    ("compare.self_s", "s", "compare", "self_s", "wall_s on all workloads"),
    ("trace.overhead_frac", "ratio", None, None, "none: the cost of tracing itself"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="shrunken instances, for the benchmark's own tests")
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def import_library():
    if not (SRC / "specdens" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specdens sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specdens
    if Path(specdens.__file__).resolve().parent != SRC / "specdens":
        raise SystemExit(f"perfbench: imported specdens from {specdens.__file__}, not {SRC}")
    return specdens


def machine_record():
    """The machine record, measured in a child process (see machine.py)."""
    done = subprocess.run([sys.executable, str(HERE / "machine.py")],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class SpmvCalibration:
    """Median seconds of one bare SpMV on the instance, from timed batches."""

    def __init__(self, matrix, seed):
        import numpy as np  # here, not at the top: after the BLAS setting in main
        self.matrix = matrix
        self.x = np.random.default_rng(seed).standard_normal(matrix.dim)
        t0 = time.perf_counter()
        matrix.matvec(self.x)
        single = max(time.perf_counter() - t0, 1e-7)
        self.calls = max(1, int(BATCH_SECONDS / single))
        self.samples = []

    def batches(self, count):
        mv, x = self.matrix.matvec, self.x
        for _ in range(count):
            t0 = time.perf_counter()
            for _ in range(self.calls):
                mv(x)
            self.samples.append((time.perf_counter() - t0) / self.calls)

    def median(self):
        return statistics.median(self.samples)

    def fastest(self):
        return min(self.samples)


def instance_record(matrix, machine):
    csr = matrix.csr
    n = matrix.dim
    nbytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes + 2 * 8 * n
    l3 = machine.get("l3_bytes")
    rec = {"n": n, "nnz": int(csr.nnz), "spmv_bytes_computed": nbytes,
           "spmv_bytes_over_l3": nbytes / l3 if l3 else None}
    if l3 and nbytes > l3:
        rec["note"] = (f"CSR plus vectors is {nbytes / l3:.1f}x the L3, not the 4x a "
                       "pure bandwidth figure would want")
    return rec


def run_setups(workload, seed, tracer):
    """Repeat set-up; returns (median seconds, times, last instance, set-up roots)."""
    times, roots, instance = [], [], None
    while len(times) < MIN_SETUPS or sum(times) < MIN_SETUP_SECONDS:
        instance = None
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("setup") if tracer else contextlib.nullcontext() as root:
                instance = workload.setup(seed)
            times.append(time.perf_counter() - t0)
        roots.append(root)
    return statistics.median(times), times, instance, roots


def run_rounds(workload, instance, op, counter, seed, seconds, tracer, calibration):
    """Rounds for ``seconds``, and at least one per probe set (at least 3);
    with a tracer every second round is traced.

    Returns a list of (traced root or None, wall seconds, matvecs, outcomes).
    """
    rounds = []
    t_start = time.perf_counter()
    while True:
        calibration.batches(ROUND_BATCHES)
        traced = tracer is not None and len(rounds) % 2 == 1
        # the wrappers go in before the clock starts: installing them is not
        # part of the round
        with tracer.installed() if traced else contextlib.nullcontext():
            before = counter.count
            t0 = time.perf_counter()
            with tracer.span("compare") if traced else contextlib.nullcontext() as root:
                outcomes = workload.run_round(instance, op, counter, seed, len(rounds))
            wall = time.perf_counter() - t0
        rounds.append((root, wall, counter.count - before, outcomes))
        if len(rounds) >= workload.streams and time.perf_counter() - t_start >= seconds:
            return rounds


def check_all(workload, instance, rounds, setup_problems):
    """Check every outcome; returns (attempted, list of (unit, problem))."""
    failures = [("setup", p) for p in setup_problems]
    attempted = 1
    for i, (_, _, _, outcomes) in enumerate(rounds):
        by_label = {o.label: o for o in outcomes}
        same_probes = ({o.label: o for o in rounds[i - workload.streams][3]}
                       if i >= workload.streams else {})
        for o in outcomes:
            attempted += 1
            problems = workload.check(o, same_probes.get(o.label), by_label)
            failures += [(f"round {i} {o.label}", p) for p in problems]
    return attempted, failures


def layer_metrics(tracer, setup_roots, traced_rounds, untraced_walls, spmv_bytes,
                  copy_gbps):
    """Per-layer metrics: medians over traced set-ups and traced rounds."""
    per_setup = [tracer.layer_totals(r) for r in setup_roots]
    per_round = [tracer.layer_totals(root) for root, *_ in traced_rounds]

    values = {}
    for name, _, span, stat, _ in LAYER_METRICS:
        if span is None:
            continue
        totals = per_setup if stat == "inclusive_s" else per_round
        average = statistics.median_low if stat == "calls" else statistics.median
        values[name] = average(t.get(span, {}).get(stat, 0) for t in totals)
    spmv_s = values["matrix.spmv_s"]
    gbps = values["matrix.spmv_calls"] * spmv_bytes / spmv_s / 1e9 if spmv_s else 0.0
    values["matrix.spmv_gbps_computed"] = gbps
    values["matrix.spmv_bw_frac"] = gbps / copy_gbps
    traced_wall = statistics.median(wall for _, wall, *_ in traced_rounds)
    values["trace.overhead_frac"] = traced_wall / statistics.median(untraced_walls) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit, *_ in LAYER_METRICS}


def main(argv=None, wrap_operator=None):
    """Run one workload and print its record and result; returns the exit code.

    ``wrap_operator``, when given, wraps the counted instance operator that
    the rounds use; the benchmark's tests pass a faulty one to show that the
    checks catch it.
    """
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # before numpy is first imported; machine.py inherits it and reports it
    os.environ.update({var: "1" for var in BLAS_ENV})
    sd = import_library()
    import workloads
    from tracing import Tracer

    workload = workloads.make(args.workload, small=args.small)
    machine = machine_record()
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload.prepare(Path(tmp))
        setup_s, setup_times, instance, setup_roots = run_setups(workload, args.seed, tracer)
    setup_problems = workload.check_setup(instance)

    counter = sd.MatvecCounter(instance.matrix)
    op = wrap_operator(counter) if wrap_operator else counter
    workload.warm_up(instance, op, counter, args.seed)
    calibration = SpmvCalibration(instance.matrix, args.seed)
    calibration.batches(CALIBRATION_BATCHES)
    rounds = run_rounds(workload, instance, op, counter, args.seed, args.seconds,
                        tracer, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures = check_all(workload, instance, rounds, setup_problems)
    untraced = [r for r in rounds if r[0] is None]
    traced = [r for r in rounds if r[0] is not None]
    inst_rec = instance_record(instance.matrix, machine)
    for i, (root, wall, *_) in enumerate(rounds):
        if root is not None:
            attempted += 1
            failures += [(f"trace round {i}", p) for p in tracer.check_round(root, wall)]
    failed = len({unit for unit, _ in failures})
    if tracer is not None:
        metrics = layer_metrics(tracer, setup_roots, traced,
                                [w for _, w, *_ in untraced],
                                inst_rec["spmv_bytes_computed"],
                                machine["copy_bandwidth"]["gbps"])
        tracer.write(OUT / f"{workload.name}.spans.npz")
    else:
        wall_s = statistics.median(w for _, w, *_ in untraced)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "overhead_factor": wall_s / (workload.budget * calibration.fastest()),
            "matvecs": statistics.median_low(m for _, _, m, _ in untraced),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1.0 - failed / attempted,
            "error_geomean": workload.accuracy(instance, [r[3] for r in rounds]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine, "instance": inst_rec,
        "nominal_matvecs_per_round": workload.budget,
        "spmv_calibration": {"median_s_per_call": calibration.median(),
                             "fastest_s_per_call": calibration.fastest(),
                             "samples": len(calibration.samples),
                             "calls_per_sample": calibration.calls},
        "setup_times_s": setup_times,
        "rounds": [{"traced": root is not None, "wall_s": wall, "matvecs": m}
                   for root, wall, m, _ in rounds],
        "failures": [f"{unit}: {problem}" for unit, problem in failures],
    }
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
