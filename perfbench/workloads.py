"""The benchmark's workloads: instance set-up, one timed round, and checks.

Every instance is generated by the benchmark itself, so nothing is
downloaded. The two large instances are the bump-free five-point Laplacian:
its sparsity pattern, and so its SpMV cost, is that of the modified
Laplacian, and its spectrum has a closed form, which lets the checks score
accuracy against the exact spectrum at n = 1M.

Each workload fixes a nominal MATVEC budget per round: the analytic count of
its estimates at the degree, probe count and method set written here. It is a
constant, so a change that spends fewer MATVECs lowers ``overhead_factor``
instead of being scored against a smaller budget.

Round i draws its probes from probe set i mod ``streams``, so accuracy is
scored over ``streams`` independent probe sets (the error of one set varies
too much from seed to seed to be scored alone), and round i must reproduce
round i - ``streams`` bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

import specdens as sd

SIGMA = 0.35
DEGREE = 80
NINE_METHODS = ("kpm", "kpm-jackson", "spectroscopic", "delta-cheb", "kpml",
                "dgl", "lanczos", "haydock", "cdos")

# Allowed |mass - 1| per method. Blurred outputs (dgl, lanczos and the exact
# blur) lose the part of the Gaussian tail that falls past the interval ends.
# Haydock at eta = sigma loses far more in its Lorentzian tails, which decay
# only like 1/x^2: ~6% on compare-750 and ~9% on the bump-free Laplacians,
# whose density stays high up to both ends of the spectrum.
MASS_TOL = {"haydock": 0.12, "dgl": 0.03, "lanczos": 0.03, "exact": 0.03}
DEFAULT_MASS_TOL = 0.01
NONNEGATIVE = ("lanczos", "cdos")


def laplacian_eigenvalues(nx, ny):
    """Sorted exact spectrum of the bump-free five-point Laplacian on nx x ny."""
    def one_d(m):
        return 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1))) ** 2
    return np.sort(np.add.outer(one_d(ny), one_d(nx)).ravel())


def _trapezoid_weights(grid):
    w = np.zeros_like(grid)
    d = np.diff(grid)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


class GaussianReference:
    """Sup-Gaussian error against a large exact spectrum.

    The metric of ``specdens.error_sup_gaussian``: Gaussian test functions of
    width sigma at 1000 centers across the interval, exact side summed over
    eigenvalues, estimate side by trapezoid on its grid. Here the exact side
    sums a histogram of 2^14 bins (bin width ~5e-4 for this spectrum, a
    relative error below 1e-6 at sigma = 0.35), computed once, so scoring
    a 1M-point spectrum costs one pass instead of one per estimate.
    """

    BINS = 1 << 14
    CENTERS = 1000

    def __init__(self, eigenvalues, interval, sigma):
        counts, edges = np.histogram(eigenvalues, bins=self.BINS)
        mids = 0.5 * (edges[1:] + edges[:-1])
        self.kernel = sd.RegularizationKernel("gaussian", sigma)
        self.centers = np.linspace(interval.lambda_lb, interval.lambda_ub, self.CENTERS)
        self.exact = np.concatenate([
            self.kernel(mids[None, :] - c[:, None]) @ counts
            for c in np.array_split(self.centers, 20)
        ]) / len(eigenvalues)

    def error(self, est):
        lam = est.lambda_grid
        approx = self.kernel(lam[None, :] - self.centers[:, None]) @ (
            _trapezoid_weights(lam) * est.density)
        return float(np.max(np.abs(self.exact - approx)))


@dataclass
class Instance:
    matrix: object
    interval: object
    spectrum: object = None


@dataclass
class Outcome:
    """One checked unit of a round: an estimate, or one comparison row."""

    label: str
    method: str
    value: object = None
    matvecs: int = 0
    expected_matvecs: int = 0
    error: str = None


def _geomean(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0 or np.any(values <= 0) or not np.all(np.isfinite(values)):
        return 0.0
    return float(np.exp(np.mean(np.log(values))))


def _interval_problems(instance, eigenvalues):
    iv = instance.interval
    if iv.lambda_lb <= eigenvalues[0] and eigenvalues[-1] <= iv.lambda_ub:
        return []
    return [f"interval [{iv.lambda_lb:.6g}, {iv.lambda_ub:.6g}] misses the spectrum "
            f"[{eigenvalues[0]:.6g}, {eigenvalues[-1]:.6g}]"]


def _density_problems(method, est):
    problems = []
    if not np.all(np.isfinite(est.density)):
        problems.append("density not finite")
    elif method in NONNEGATIVE and np.any(est.density < 0):
        problems.append("density negative")
    mass = est.mass()
    tol = MASS_TOL.get(method, DEFAULT_MASS_TOL)
    if not abs(mass - 1.0) <= tol:
        problems.append(f"mass {mass:.6f} not within {tol} of 1")
    return problems


@dataclass
class EstimateWorkload:
    """Separate ``estimate_dos`` calls on a generated Laplacian."""

    name: str
    grid: tuple
    probe_kind: str
    n_vec: int
    estimates: tuple          # (label, method, extra estimate_dos keywords)
    budget: int               # nominal MATVECs per round
    from_file: bool = False
    streams: int = 8
    path: object = field(default=None, repr=False)

    def prepare(self, workdir):
        """Untimed: write the instance to Matrix Market when set-up loads it."""
        if self.from_file:
            self.path = workdir / f"{self.name}.mtx"
            sd.save_matrix_market(self._generate(), self.path)

    def _generate(self):
        return sd.generate_modified_laplacian_2d(*self.grid, bumps=())

    def setup(self, seed):
        matrix = sd.load_matrix_market(self.path) if self.from_file else self._generate()
        return Instance(matrix, sd.estimate_spectral_interval(matrix, seed=seed))

    def run_round(self, instance, op, counter, seed, index, n_vec=None):
        n_vec = n_vec or self.n_vec
        outcomes = []
        for label, method, kwargs in self.estimates:
            source = sd.ProbeVectorSource(self.probe_kind, seed, instance.matrix.dim,
                                          stream=index % self.streams)
            before = counter.count
            try:
                est = sd.estimate_dos(op, instance.interval, method, DEGREE,
                                      source, n_vec, **kwargs)
            except Exception as exc:  # counted as a failed estimate; the run goes on
                outcomes.append(Outcome(label, method, error=repr(exc)))
                continue
            expected = sd.analytic_matvec_count(
                method, DEGREE, n_vec, kwargs.get("product_formula", False))
            outcomes.append(Outcome(label, method, est, counter.count - before, expected))
        return outcomes

    def warm_up(self, instance, op, counter, seed):
        self.run_round(instance, op, counter, seed, 0, n_vec=1)

    def exact_eigenvalues(self, instance):
        return laplacian_eigenvalues(*self.grid)

    def check_setup(self, instance):
        return _interval_problems(instance, self.exact_eigenvalues(instance))

    def check(self, outcome, earlier, round_outcomes):
        """Problems with one estimate; ``earlier`` is the same estimate from an
        earlier round on the same probes, which it must reproduce bit for bit."""
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        est = outcome.value
        problems = []
        if outcome.matvecs != outcome.expected_matvecs:
            problems.append(f"{outcome.matvecs} MATVECs, analytic count {outcome.expected_matvecs}")
        if est.params.get("matvec_count") != outcome.expected_matvecs:
            problems.append(f"reported {est.params.get('matvec_count')} MATVECs, "
                            f"analytic count {outcome.expected_matvecs}")
        problems += _density_problems(outcome.method, est)
        if earlier is not None and earlier.value is not None and not np.array_equal(
                est.density, earlier.value.density):
            problems.append("not bit-identical to the earlier round on the same probes")
        return problems

    def accuracy(self, instance, rounds):
        """Geometric mean of the sup-Gaussian error over the estimates of the
        first ``streams`` rounds, one round per probe stream."""
        ref = GaussianReference(self.exact_eigenvalues(instance), instance.interval, SIGMA)
        return _geomean([ref.error(o.value) for outcomes in rounds[:self.streams]
                         for o in outcomes if o.value is not None])


@dataclass
class ComparisonWorkload:
    """The paper's accuracy-per-MATVEC sweep: one ``run_method_comparison``."""

    name: str
    grid: tuple
    n_vec: int
    reps: int
    degrees: tuple
    budget: int
    # run_method_comparison draws one probe stream per repetition from its
    # seed, so probe set i is the sweep at seed streams * seed + i
    streams = 3

    def prepare(self, workdir):
        pass

    def setup(self, seed):
        matrix = sd.generate_modified_laplacian_2d(*self.grid)
        interval = sd.estimate_spectral_interval(matrix, seed=seed)
        return Instance(matrix, interval, sd.dense_eigensolve(matrix))

    def run_round(self, instance, op, counter, seed, index, reps=None):
        methods = ("exact",) + NINE_METHODS
        before = counter.count
        try:
            rows = sd.run_method_comparison(
                op, methods, self.degrees, SIGMA, n_vec=self.n_vec,
                reps=reps or self.reps, seed=self.streams * seed + index % self.streams,
                interval=instance.interval,
                spectrum=instance.spectrum)
        except Exception as exc:  # every row of the sweep counts as failed
            return [Outcome(f"{m}@{d}", m, error=repr(exc))
                    for m in methods for d in self.degrees]
        matvecs = counter.count - before
        # one Chebyshev, one Legendre and one Lanczos pass per probe and rep,
        # each at the largest degree
        expected = (reps or self.reps) * self.n_vec * max(self.degrees) * 3
        return [Outcome(f"{r.method}@{r.degree}", r.method, r, matvecs, expected)
                for r in rows]

    def warm_up(self, instance, op, counter, seed):
        self.run_round(instance, op, counter, seed, 0, reps=1)

    def exact_eigenvalues(self, instance):
        return instance.spectrum.eigenvalues

    def check_setup(self, instance):
        return _interval_problems(instance, self.exact_eigenvalues(instance))

    def check(self, outcome, earlier, round_outcomes):
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        row = outcome.value
        problems = []
        if outcome.matvecs != outcome.expected_matvecs:
            problems.append(f"sweep spent {outcome.matvecs} MATVECs, "
                            f"three probe passes need {outcome.expected_matvecs}")
        analytic = sd.analytic_matvec_count(row.method, row.degree, self.n_vec)
        if row.matvec_count != analytic:
            problems.append(f"row reports {row.matvec_count} MATVECs, analytic count {analytic}")
        if not (np.isfinite(row.error_mean) and np.all(np.isfinite(row.errors))):
            problems.append("error not finite")
        if row.method == "exact" and row.error_mean != 0.0:
            problems.append(f"exact row error {row.error_mean:g}, expected 0")
        tol = MASS_TOL.get(row.method, DEFAULT_MASS_TOL)
        if not abs(row.mass_mean - 1.0) <= tol:
            problems.append(f"mass {row.mass_mean:.6f} not within {tol} of 1")
        lo, hi = min(self.degrees), max(self.degrees)
        if row.degree == hi:
            low = round_outcomes.get(f"{row.method}@{lo}")
            if low is not None and low.value is not None and row.error_mean > low.value.error_mean:
                problems.append(f"error at degree {hi} ({row.error_mean:.3g}) exceeds "
                                f"degree {lo} ({low.value.error_mean:.3g})")
        if earlier is not None and earlier.value is not None and not np.array_equal(
                row.errors, earlier.value.errors):
            problems.append("not bit-identical to the earlier round")
        return problems

    def accuracy(self, instance, rounds):
        """Geometric mean of error_mean over the scored (non-exact) rows of
        the first ``streams`` sweeps."""
        return _geomean([o.value.error_mean for outcomes in rounds[:self.streams]
                         for o in outcomes if o.value is not None and o.method != "exact"])


def make(name, small=False):
    """The named workload; ``small`` shrinks it for the benchmark's own tests."""
    if name == "poly-1m":
        side = 40 if small else 1000
        return EstimateWorkload(
            name, (side, side), "rademacher", n_vec=2,
            estimates=(("kpm-jackson", "kpm-jackson", {}),
                       ("kpm-jackson-product", "kpm-jackson", {"product_formula": True}),
                       ("dgl", "dgl", {"sigma": SIGMA})),
            budget=2 * (80 + 40 + 80), from_file=True)
    if name == "lanczos-90k":
        side = 30 if small else 300
        return EstimateWorkload(
            name, (side, side), "gaussian", n_vec=2,
            estimates=(("lanczos", "lanczos", {"sigma": SIGMA}),
                       ("haydock", "haydock", {"eta": SIGMA}),
                       ("cdos", "cdos", {})),
            budget=2 * (80 + 80 + 80))
    if name == "compare-750":
        reps = 2 if small else 10
        return ComparisonWorkload(
            name, (30, 25), n_vec=100, reps=reps, degrees=(20, 40, 60, 80, 100),
            budget=reps * 100 * 100 * 3)
    raise ValueError(f"unknown workload {name!r}")

