"""Seeded Monte-Carlo sampling: Haar unitaries, profile-constrained matrices,
trace-moment and entry-moment estimators, and spectral-radius experiments.

One Haar draw per sample.  With U, V independent Haar and T = diag(s),

    U T V = U (T V U) U^*,

and W = V U is again Haar.  So A = U T V is unitarily similar to T W, which
has the same eigenvalues, the same tr A^k and the same tr A^k (A^k)^* for
every k.  Every statistic of A sampled here is one of those, so each sample
is drawn as ``s[:, None] * W`` from a single Haar matrix: no second QR and
no matrix product.  The matrix law of T W is not that of U T V (its rows
have the fixed norms s_i), so the samplers of A are for similarity-invariant
statistics only.  ``mc_entry_moment`` samples the Haar matrix itself.

The only module of the package that imports numpy or reads a profile in
floats: each sampling entry point builds ``float_view(profile)`` once, the
profile's integer numerators each divided by its denominator, with b, a, M
and m, and hands it down.

Randomness discipline: every public entry point takes an integer seed and
derives counter-based Philox streams via ``rng_stream(seed, index)``.  Work
items (replications) own disjoint stream indices and results are merged by
index, so output is byte-stable under any parallelism degree.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from itertools import repeat
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from .haar_moments import MomentSpec
from .profiles import SingularProfile

# a batch holds at most _BATCH matrices and _BATCH_ENTRIES matrix entries
_BATCH = 4096
_BATCH_ENTRIES = 2**20


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge.  The message, which names the seed
    and the stream of the offending sample, is all the error holds, so it
    pickles and a process pool reports the serial path's line."""


class OverflowGuardError(RuntimeError):
    """Matrix power left the floating-point range."""


def rng_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream index)."""
    if not 0 <= seed < 2**63:
        raise ValueError("seed must fit in a nonnegative 63-bit integer")
    if not 0 <= index < 2**63:
        raise ValueError("stream index must fit in a nonnegative 63-bit integer")
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def haar_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` independent Haar-distributed n x n unitaries.

    Complex Ginibre followed by QR, with the Q columns rescaled by the phases
    of the R diagonal.  Without that rescaling the QR output is not Haar.
    The real and imaginary parts come interleaved from one normal draw, and
    the entries keep variance 2: Householder QR returns the same Q for any
    positive multiple of its input, so the usual 1/sqrt(2) is left out.
    """
    if n < 1 or count < 1:
        raise ValueError("dimension and count must be at least 1")
    z = rng.standard_normal((count, n, n, 2)).view(np.complex128)[..., 0]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mod = np.abs(d)
    phase = np.where(mod > 0, d / np.where(mod > 0, mod, 1.0), 1.0)
    q *= phase[:, None, :]
    return q


@dataclass(frozen=True, eq=False)
class FloatView:
    """What the sampler reads of a profile: its entries rounded to floats,
    and b, a, M and m computed from them by ``float_view``."""

    values: np.ndarray
    b: float
    a: float
    M: float
    m: float

    @property
    def n(self) -> int:
        return len(self.values)


def float_view(profile: SingularProfile) -> FloatView:
    """The float view of ``profile``: x_i = float(s_i), the correctly
    rounded quotient of the i-th numerator by the denominator; M = max x and
    m = min x, which are float(profile.M) and float(profile.m) as rounding is
    monotone; b = sqrt(mean x_i^2) on the x_i scaled by the power of two
    just below M, and a = sqrt(n / sum x_i^(-2)) on them scaled by the power
    of two just below m, or 0 when m is.  Power-of-two scales are exact, so
    b and a keep the bits of the plain roots wherever those neither under-
    nor overflow, and neither under- nor overflows where it is a float.  A
    ValueError naming the profile when an entry or b lies beyond the float
    range; a <= b then lies within it."""
    n = profile.n
    try:
        denominator = profile.denominator
        x = [p / denominator for p in profile.numerators]
        big, small = max(x), min(x)
        b = a = 0.0
        if big > 0:
            p = math.ldexp(1.0, math.frexp(big)[1] - 1)  # big / 2 < p <= big
            b = p * math.sqrt(sum(w * w for w in (v / p for v in x)) / n)
        if not math.isfinite(b):
            raise OverflowError  # rejected like an entry beyond the range
    except OverflowError:
        raise ValueError(f"profile of n = {n} cannot be sampled: an entry "
                         "or b lies beyond the float range") from None
    if small > 0:
        p = math.ldexp(1.0, math.frexp(small)[1] - 1)  # small / 2 < p <= small
        a = p * math.sqrt(n / sum(1 / (w * w) for w in (v / p for v in x)))
    return FloatView(np.array(x), b, a, big, small)


def sample_A_batch(
    view: FloatView, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` draws of T W from one ``haar_batch`` call: row i of each
    Haar W scaled by s_i.  Each is unitarily similar to a draw of U T V."""
    w = haar_batch(view.n, count, rng)
    w *= view.values[:, None]
    return w


def _power_batch(a: np.ndarray, k: int) -> np.ndarray:
    """a^k by repeated multiplication; every step is checked for overflow."""
    out = a
    for _ in range(k - 1):
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            out = out @ a
        if not np.all(np.isfinite(out)):
            raise OverflowGuardError(f"matrix power overflowed at exponent <= {k}")
    return out


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical mean and standard error of a sampled statistic."""

    mean: float
    std_error: float
    samples: int
    statistic: str
    k: int
    n: int


def _batched_estimate(
    seed: int,
    samples: int,
    batch: Callable[[int, np.random.Generator], np.ndarray],
    statistic: str,
    k: int,
    n: int,
) -> MomentEstimate:
    """Mean and standard error of ``samples`` values drawn on the stream
    ``rng_stream(seed)`` in batches of n x n matrices, as many as the bounds
    ``_BATCH`` and ``_BATCH_ENTRIES`` allow: ``batch(b, rng)`` returns the
    next b values.  The stream is read in the same order at any batch size.
    A non-finite mean or standard error raises ``OverflowGuardError``."""
    rng = rng_stream(seed)
    vals = np.empty(samples, dtype=float)
    size = max(1, min(_BATCH, _BATCH_ENTRIES // (n * n)))
    done = 0
    while done < samples:
        b = min(size, samples - done)
        vals[done : done + b] = batch(b, rng)
        done += b
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow surfaces as a non-finite result, checked below
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise OverflowGuardError(
            f"{statistic} estimate left the floating-point range "
            f"(mean={mean!r}, std error={se!r})"
        )
    return MomentEstimate(mean, se, samples, statistic, k, n)


def estimate_trace_moment(
    k: int,
    profile: SingularProfile,
    samples: int,
    seed: int,
    mode: Literal["uu", "sq"] = "uu",
) -> MomentEstimate:
    """Monte-Carlo estimate of a k-th trace moment of A = U T V, sampled as
    T W (see the module docstring; both statistics are similarity invariant).

    mode "uu" averages trace(A^k (A^k)^*), mode "sq" averages |trace(A^k)|^2.
    Both statistics are real; k = 1 with mode "uu" is deterministic, so its
    standard error is numerical noise only.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if mode not in ("uu", "sq"):
        raise ValueError(f"unknown mode {mode!r}")
    view = float_view(profile)

    def batch(b: int, rng: np.random.Generator) -> np.ndarray:
        p = _power_batch(sample_A_batch(view, b, rng), k)
        with np.errstate(over="ignore"):  # an inf is rejected with the estimate
            if mode == "uu":
                return np.sum(np.abs(p) ** 2, axis=(1, 2))
            return np.abs(np.trace(p, axis1=1, axis2=2)) ** 2

    return _batched_estimate(seed, samples, batch, f"trace_{mode}", k, profile.n)


def mc_entry_moment(spec: MomentSpec, samples: int, seed: int) -> MomentEstimate:
    """Monte-Carlo check of ``haar_moments.entry_moment``: empirical mean of
    the real part of the sampled word (the exact value is real; the
    imaginary part averages to zero and is dropped)."""
    if samples < 1:
        raise ValueError("need at least one sample")

    def batch(b: int, rng: np.random.Generator) -> np.ndarray:
        u = haar_batch(spec.n, b, rng)
        word = np.ones(b, dtype=complex)
        for r, c in zip(spec.rows, spec.cols):
            word = word * u[:, r - 1, c - 1]
        for r, c in zip(spec.conj_rows, spec.conj_cols):
            word = word * np.conj(u[:, r - 1, c - 1])
        return word.real

    return _batched_estimate(seed, samples, batch, "entry_moment", spec.k, spec.n)


def extreme_eigenvalues(a: np.ndarray) -> tuple[float, float]:
    """(largest, smallest) eigenvalue modulus of a dense square matrix."""
    eigs = np.linalg.eigvals(a)
    mods = np.abs(eigs)
    return float(mods.max()), float(mods.min())


@dataclass(frozen=True)
class ProfileFamily:
    """Recipe producing a profile for any dimension n.

    kinds:
    * "uniform-random": n independent draws, uniform on [lo, hi], consuming
      the replication's own stream,
    * "grid": the exact grid from lo to hi, ``SingularProfile.uniform_grid``,
    * "constant": lo repeated.

    The kind, and a uniform-random family's 0 <= lo <= hi, are checked when
    the family is built; the grid and constant values are checked as
    profile entries.
    """

    kind: Literal["uniform-random", "grid", "constant"]
    lo: float = 1.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("uniform-random", "grid", "constant"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "uniform-random" and not 0 <= self.lo <= self.hi:
            raise ValueError("uniform-random family needs 0 <= lo <= hi, got "
                             f"lo = {self.lo!r}, hi = {self.hi!r}")

    def realize(self, n: int, rng: np.random.Generator) -> SingularProfile:
        if self.kind == "uniform-random":
            return SingularProfile(tuple(rng.uniform(self.lo, self.hi, n)))
        if self.kind == "grid":
            return SingularProfile.uniform_grid(self.lo, self.hi, n)
        return SingularProfile.constant(self.lo, n)


@dataclass(frozen=True)
class ExperimentRecord:
    """One output row; the CSV schema is exactly these fields in this order."""

    n: int
    k: int
    seed: int
    stat: str
    value: float
    b: float
    a: float
    M: float
    m: float


def profile_records(
    view: FloatView, k: int, seed: int, values: Iterable[tuple[str, float]]
) -> list[ExperimentRecord]:
    """One record per (stat, value) pair, each carrying the profile's n, b,
    a, M and m from its float view: the builder of every sampled record."""
    return [
        ExperimentRecord(view.n, k, seed, stat, value, view.b, view.a, view.M, view.m)
        for stat, value in values
    ]


def _spectrum_replication(
    source: ProfileFamily | FloatView, n: int, seed: int, stream_index: int
) -> list[ExperimentRecord]:
    """One replication on its own stream: a family is realized at n from
    the stream first, and a float view is sampled as it is."""
    rng = rng_stream(seed, stream_index)
    if isinstance(source, FloatView):
        view = source
    else:
        view = float_view(source.realize(n, rng))
    a_mat = sample_A_batch(view, 1, rng)[0]
    try:
        hi, lo = extreme_eigenvalues(a_mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver did not converge (seed={seed}, stream={stream_index})"
        ) from exc
    return profile_records(view, 1, seed, (
        ("spectral_radius", hi),
        ("min_modulus", lo),
        ("radius_deviation", hi - view.b),
        ("min_deviation", view.a - lo),
    ))


def spectrum_records(
    source: ProfileFamily | FloatView,
    n_values: Sequence[int],
    replications: int,
    seed: int,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """Extreme-eigenvalue records over an n-grid.  A family is realized at
    each n, and a float view is sampled as it is.

    Each (n, replication) pair owns stream index grid_position * replications
    + replication, so the output is independent of ``jobs``.  More than one
    task and ``jobs`` run in a pool of min(jobs, tasks) processes, and a
    single worker runs them in this process.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    ns = [n for n in n_values for _ in range(replications)]
    # the task columns; the stream index is the task's position
    columns = (repeat(source), ns, repeat(seed), range(len(ns)))
    workers = min(jobs, len(ns))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_spectrum_replication, *columns))
    else:
        chunks = list(map(_spectrum_replication, *columns))
    return [record for chunk in chunks for record in chunk]


@dataclass(frozen=True)
class RateFit:
    """Log-log regression of the median positive radius deviation against n.

    ``degenerate`` is set when fewer than two grid points have a positive
    median deviation; the slope is then reported as 0 (consistent with a
    deviation that has already collapsed to zero at these sizes).
    """

    slope: float
    stderr: float
    ci_low: float
    ci_high: float
    medians: tuple[tuple[int, float], ...]
    degenerate: bool


def _fit_loglog(points: Sequence[tuple[int, float]]) -> RateFit:
    positive = [(n, med) for n, med in points if med > 0]
    if len(positive) < 2:
        return RateFit(0.0, 0.0, 0.0, 0.0, tuple(points), True)
    xs = np.log([n for n, _ in positive])
    ys = np.log([med for _, med in positive])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    if len(positive) > 2:
        sxx = float(np.sum((xs - xs.mean()) ** 2))
        stderr = math.sqrt(float(np.sum(resid**2)) / (len(positive) - 2) / sxx)
    else:
        stderr = 0.0
    return RateFit(
        float(slope),
        stderr,
        float(slope - 1.96 * stderr),
        float(slope + 1.96 * stderr),
        tuple(points),
        False,
    )


def radius_rate_experiment(
    family: ProfileFamily,
    n_grid: Sequence[int],
    replications: int,
    seed: int,
    jobs: int = 1,
) -> tuple[list[ExperimentRecord], RateFit]:
    """Records plus a fitted decay rate for the positive part of
    |largest eigenvalue| - b across the n-grid.

    Medians below the eigensolver rounding scale (eps * n * b) count as zero;
    otherwise a profile whose radius deviation is exactly 0 would feed pure
    rounding noise into the regression instead of flagging degeneracy.
    The grid must be nonempty, without repeats, and at least 1 throughout.
    """
    if not n_grid or len(set(n_grid)) != len(n_grid) or min(n_grid) < 1:
        raise ValueError(
            f"n_grid must be distinct dimensions of at least 1, got {list(n_grid)}"
        )
    records = spectrum_records(family, n_grid, replications, seed, jobs)
    eps = float(np.finfo(float).eps)
    points = []
    for n in n_grid:
        rows = [r for r in records if r.n == n and r.stat == "radius_deviation"]
        med = float(np.median([max(r.value, 0.0) for r in rows]))
        floor = 8 * eps * n * max(1.0, max(r.b for r in rows))
        points.append((n, med if med > floor else 0.0))
    return records, _fit_loglog(points)


@dataclass(frozen=True)
class TailPoint:
    delta: float
    p_radius_above: float
    p_min_below: float


def tail_experiment(
    profile: SingularProfile,
    deltas: Sequence[float],
    replications: int,
    seed: int,
    jobs: int = 1,
) -> tuple[list[ExperimentRecord], list[TailPoint]]:
    """Empirical exceedance frequencies for a fixed profile at its own
    dimension ``profile.n``: P(|largest eigenvalue| > b + delta) and
    P(|smallest| < a - delta) per delta.  Sharing one sample set across
    deltas makes both curves automatically nonincreasing in delta.  There
    must be at least one delta."""
    if not deltas:
        raise ValueError(f"deltas must be a nonempty list, got {list(deltas)}")
    view = float_view(profile)  # rejected before any replication runs
    # grid position 0, so replication rep owns stream index rep
    records = spectrum_records(view, [profile.n], replications, seed, jobs)
    radii = [r.value for r in records if r.stat == "spectral_radius"]
    minima = [r.value for r in records if r.stat == "min_modulus"]
    points = [
        TailPoint(
            float(delta),
            sum(v > view.b + delta for v in radii) / replications,
            sum(v < view.a - delta for v in minima) / replications,
        )
        for delta in deltas
    ]
    return records, points


def write_records_csv(records: Iterable, path: str) -> None:
    """CSV of dataclass rows headed by their field names, those of
    ``ExperimentRecord`` when there are none; ``csv`` writes floats with
    repr, so rereading reproduces them bit for bit."""
    records = list(records)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(f.name for f in fields(records[0] if records else ExperimentRecord))
        writer.writerows(astuple(r) for r in records)


def write_records_jsonl(records: Iterable[ExperimentRecord], path: str) -> None:
    """One JSON object per line, keys sorted, floats via repr round-trip."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), sort_keys=True))
            fh.write("\n")

