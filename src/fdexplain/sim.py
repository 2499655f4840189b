"""Synthetic spectral-temporal signature generator.

Each signature is an intensity curve on a shared log-time grid whose shape
responds to three device characteristics:

* y1 (binary): adds a fourth peak, shifts the first peak earlier, and
  boosts intensity at early times;
* y2 (binary): scales intensity over the whole curve;
* y3 (continuous in [0, 1]): scales intensity and shifts the timing of
  every peak.

A curve is ``gain * (baseline + early boost + sum of Gaussian peaks)`` plus
iid Gaussian observation noise, floored at a small positive constant.
Generation is deterministic: signature ``i`` draws from numpy's
``SeedSequence((seed, i))`` -> ``PCG64`` stream, so any subset of a
dataset reproduces independently of how many signatures are generated or
in what order. The keys of all signatures are hashed in one bulk call
(``seeding.substreams``); each stream is still the one-key stream, which
the tests keep as the oracle ``substream_ref``.
"""

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import kernels
from ._config import _float_fields, _override
from .errors import NonFiniteError
from .seeding import stage_seed, substreams

INTENSITY_FLOOR = 1e-6
BOOST_DECAY_RATE = 3.0
N_BASE_PEAKS = 4


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of `count` log-time points from `start` to `stop`,
    both included; the three numbers are the whole grid."""

    count: int = 1000
    start: float = -4.0
    stop: float = 0.0

    def __post_init__(self):
        _float_fields(self)
        if self.count < 2:
            raise ValueError(f"grid.count must be >= 2, got {self.count}")
        # NaN fails both comparisons; an infinite end, a reversed or empty
        # span, and a span whose step overflows or underflows fail one
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"grid needs finite start < stop, got start "
                             f"{self.start!r} and stop {self.stop!r}")
        # a step no wider than the float spacing at the ends would give
        # points that repeat or fall
        spacing = math.ulp(max(abs(self.start), abs(self.stop)))
        if self.dt <= spacing:
            raise ValueError(f"grid step {self.dt!r} from start "
                             f"{self.start!r} to stop {self.stop!r} must "
                             f"exceed the float spacing {spacing!r}")
        # np.linspace computes the last point as start + (count - 1) * dt
        # before it sets it to stop; near the largest float that overflows
        if math.isinf(self.start + (self.count - 1) * self.dt):
            raise ValueError(f"grid from start {self.start!r} to stop "
                             f"{self.stop!r} in {self.count} points "
                             f"overflows the float range")

    @cached_property
    def points(self) -> np.ndarray:
        points = np.linspace(self.start, self.stop, self.count)
        points.flags.writeable = False
        return points

    @property
    def dt(self) -> float:
        return (self.stop - self.start) / (self.count - 1)


@dataclass(frozen=True)
class SimParams:
    """Generator parameters. Defaults produce the documented qualitative
    label effects; zero the jitter and noise fields for exact-shape tests."""

    peak_centers: tuple[float, ...] = (-3.7, -2.4, -1.3, -0.35)
    peak_widths: tuple[float, ...] = (0.16, 0.22, 0.30, 0.18)
    peak_amplitudes: tuple[float, ...] = (3.0, 2.0, 1.6, 0.6)
    baseline_intensity: float = 3.0
    baseline_decay: float = 1.1
    y1_boost_gain: float = 3.0
    y1_first_peak_shift: float = -0.08
    y2_gain: float = 0.7
    y3_gain: float = 0.75
    y3_timing_span: float = 0.19
    amp_jitter_sd: float = 0.10
    center_jitter_sd: float = 0.01
    width_jitter_sd: float = 0.04
    noise_sd: float = 0.02

    def __post_init__(self):
        _float_fields(self)
        for name in ("peak_centers", "peak_widths", "peak_amplitudes"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != N_BASE_PEAKS:
                raise ValueError(f"{name} must have {N_BASE_PEAKS} entries")
            object.__setattr__(self, name, vals)
        if any(w <= 0 for w in self.peak_widths):
            raise ValueError("peak widths must be positive")
        if any(a <= 0 for a in self.peak_amplitudes):
            raise ValueError("peak amplitudes must be positive")
        for name in ("amp_jitter_sd", "center_jitter_sd", "width_jitter_sd", "noise_sd"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def noiseless(self) -> "SimParams":
        """Copy with all jitter and observation-noise sds set to zero."""
        return replace(self, amp_jitter_sd=0.0, center_jitter_sd=0.0,
                       width_jitter_sd=0.0, noise_sd=0.0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimParams":
        return _override(cls(), d, "SimParams")


@dataclass(frozen=True)
class LabelSet:
    """Column arrays of labels."""

    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray

    def __len__(self) -> int:
        return self.y1.size


@dataclass
class Dataset:
    grid: TimeGrid
    values: np.ndarray
    labels: LabelSet
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.count:
            raise ValueError("values must be (n, grid.count)")
        if self.values.shape[0] != len(self.labels):
            raise ValueError("values and labels disagree on n")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.grid, self.values[idx],
                       LabelSet(self.labels.y1[idx], self.labels.y2[idx],
                                self.labels.y3[idx]),
                       dict(self.provenance, subset=True))


def sample_labels(n: int, seed: int) -> LabelSet:
    """Draw n label triples: y1, y2 ~ Bernoulli(1/2), y3 ~ Uniform(0, 1).

    Draws are laid out one row of three uniforms per signature, so label i
    is the same regardless of n (subset reproducibility).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    u = np.random.default_rng(np.random.SeedSequence(seed)).random((n, 3))
    return LabelSet(y1=(u[:, 0] < 0.5).astype(np.int64),
                    y2=(u[:, 1] < 0.5).astype(np.int64),
                    y3=u[:, 2].copy())


def generate_dataset(n: int, params: SimParams, seed: int,
                     grid: TimeGrid = TimeGrid()) -> Dataset:
    """Generate n signatures with labels; fully determined by (n, params, seed, grid)."""
    labels = sample_labels(n, stage_seed(seed, "labels"))
    signature_seed = stage_seed(seed, "signatures")
    z = np.empty((n, 3 * N_BASE_PEAKS))
    noise = np.empty((n, grid.count))
    keys = np.arange(n)[:, None]
    for i, rng_i in enumerate(substreams(signature_seed, keys)):
        # 4 amp, 4 center, 4 width jitters, then noise
        z[i] = rng_i.standard_normal(3 * N_BASE_PEAKS)
        noise[i] = rng_i.standard_normal(grid.count)

    y1, y2, y3 = labels.y1 == 1, labels.y2, labels.y3
    amps = np.asarray(params.peak_amplitudes) * np.exp(params.amp_jitter_sd * z[:, 0:4])
    centers = (np.asarray(params.peak_centers) + params.center_jitter_sd * z[:, 4:8]
               + params.y3_timing_span * (y3 - 0.5)[:, None])
    centers[y1, 0] += params.y1_first_peak_shift
    widths = np.asarray(params.peak_widths) * np.exp(params.width_jitter_sd * z[:, 8:12])
    n_peaks = np.where(y1, N_BASE_PEAKS, N_BASE_PEAKS - 1)
    gains = (1.0 + params.y2_gain * y2) * (1.0 + params.y3_gain * y3)
    boosts = np.where(y1, params.y1_boost_gain, 0.0)
    raw = kernels.curve_batch(grid.points, centers, widths, amps, n_peaks,
                              gains, boosts, BOOST_DECAY_RATE,
                              params.baseline_intensity, params.baseline_decay,
                              grid.start)
    values = raw + params.noise_sd * noise
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("signature generation produced non-finite values")
    values = np.maximum(values, INTENSITY_FLOOR)
    provenance = {"seed": int(seed), "n": int(n), "params": params.to_dict()}
    return Dataset(grid, values, labels, provenance)


@dataclass(frozen=True)
class GroupCurves:
    name: str
    mean: np.ndarray
    sd: np.ndarray
    size: int


GROUPINGS = ("by-y1", "by-y2", "by-y3-quartile")


def class_conditional_means(dataset: Dataset, grouping: str) -> list[GroupCurves]:
    """Point-wise mean and sd curves per label group.

    `grouping` is one of "by-y1", "by-y2", or "by-y3-quartile"; quartile
    bins use the empirical quartiles of y3 within the dataset. The sd is
    the population (ddof=0) point-wise standard deviation.
    """
    if grouping == "by-y1":
        masks = [(f"y1={v}", dataset.labels.y1 == v) for v in (0, 1)]
    elif grouping == "by-y2":
        masks = [(f"y2={v}", dataset.labels.y2 == v) for v in (0, 1)]
    elif grouping == "by-y3-quartile":
        y3 = dataset.labels.y3
        edges = np.quantile(y3, [0.25, 0.5, 0.75])
        bins = np.searchsorted(edges, y3, side="left")
        masks = [(f"y3 Q{q + 1}", bins == q) for q in range(4)]
    else:
        raise ValueError(f"unknown grouping {grouping!r}; expected one of {GROUPINGS}")

    groups = []
    for name, mask in masks:
        if not np.any(mask):
            raise ValueError(f"group {name!r} is empty")
        block = dataset.values[mask]
        groups.append(GroupCurves(name, block.mean(axis=0), block.std(axis=0),
                                  int(mask.sum())))
    return groups
