"""Seeded Monte Carlo sampling and Kolmogorov-Smirnov goodness of fit.

Each batch draws from its own ``np.random.Generator`` over an SFC64 bit
generator seeded by ``SeedSequence([seed mod 2^64, tag])``, where the tag
is the generator's domain, and takes its standard normals from numpy's
ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5, 2000).  Value j of a
generator consuming w normals per value owns normals ``w*j .. w*j + w - 1``
of that stream, so the values do not depend on the block size and a
shorter batch is a prefix of a longer one with the same seed.

Generation is blocked and in place: ``standard_normal(out=)`` fills a
value-major ``(m, w)`` block of at most ``_BLOCK`` normals and the product
(or difference of products) is formed into the output, so a batch needs
its output plus O(block) memory.

``ks_statistic`` sorts the batch in place and walks it in blocks of the
same size, so it needs O(block) beyond the batch.  ``ks_over_seeds`` runs
the seed table of both generators, one job per (generator, seed), on one
pool of min(usable CPUs, jobs) threads (the process's CPU affinity, else
the CPU count); there is no knob.  numpy's normal generation, ufuncs and
sort release the GIL, so the time falls with the cores, and the reports
come back in seed order, bit-identical to one job after another.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import kolmogi

#: Committed seed table used by the acceptance pipeline; golden statistics
#: in the test suite quantify over exactly these seeds.
GOLDEN_SEEDS: tuple[int, ...] = (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)

#: Significance level of every KS test whose caller sets none
KS_ALPHA = 0.001


class Generator(enum.Enum):
    """Named sampling pipelines."""

    NORMAL_PRODUCT = "normal-product"
    PRODUCT_SELF_DIFFERENCE = "product-self-difference"


#: Per generator: its stream-domain tag, so different generators with the
#: same seed draw from different streams, and the normals per value
_STREAMS = {
    Generator.NORMAL_PRODUCT: (0x4E50, 2),
    Generator.PRODUCT_SELF_DIFFERENCE: (0x505344, 4),
}


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draws: (generator, seed, n) determines values bit-exactly.

    Bit-exact for numpy's SFC64 stream and ``standard_normal`` on any CPU:
    the ziggurat is scalar C, not a SIMD-dispatched loop, and a product or
    difference rounds the same in any loop (its rare wedge and tail steps
    call the C library's ``exp`` and ``log1p``, so another libm could move
    a tail draw).  NEP 19 fixes the SFC64 bits but lets a numpy feature
    release change the algorithm behind a ``Generator`` method, so a new
    numpy may move the draws; their law does not depend on either.
    """

    generator: Generator
    seed: int
    n: int
    values: np.ndarray


@dataclass(frozen=True)
class KSReport:
    """One-sample Kolmogorov-Smirnov outcome against a reference CDF."""

    n: int
    statistic: float
    scaled: float
    alpha: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "D": self.statistic,
            "scaled": self.scaled,
            "alpha": self.alpha,
            "threshold": self.threshold,
            "pass": self.passed,
        }


#: Normals per generation block: the 512 KiB block buffer fits in a
#: 2 MiB L2 cache
_BLOCK = 1 << 16


def sample(generator: Generator, seed: int, n: int) -> SampleBatch:
    """Draw n values.

    ``normal-product`` multiplies two independent standard normals per
    value; ``product-self-difference`` draws four and returns
    ``z0 z1 - z2 z3``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    generator = Generator(generator)
    tag, w = _STREAMS[generator]
    seed_seq = np.random.SeedSequence([int(seed) % (1 << 64), tag])
    rng = np.random.Generator(np.random.SFC64(seed_seq))
    values = np.empty(n)
    per_block = min(_BLOCK // w, n)
    normals = np.empty((per_block, w))
    for a in range(0, n, per_block):
        z = normals[: min(per_block, n - a)]
        rng.standard_normal(out=z)
        dst = values[a : a + z.shape[0]]
        np.multiply(z[:, 0], z[:, 1], out=dst)
        if w == 4:
            np.multiply(z[:, 2], z[:, 3], out=z[:, 2])
            np.subtract(dst, z[:, 2], out=dst)
    return SampleBatch(generator, int(seed), int(n), values)


def kolmogorov_threshold(alpha: float) -> float:
    """c with P(sqrt(n) D > c) -> alpha under the Kolmogorov asymptotics.

    The inverse of the Kolmogorov survival function
    ``2 sum_k (-1)^(k-1) exp(-2 k^2 c^2)``; c(0.01) ~ 1.628, c(0.001) ~ 1.949.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(kolmogi(alpha))


def ks_statistic(batch: SampleBatch, cdf: Callable, alpha: float = KS_ALPHA) -> KSReport:
    """Exact one-sample KS statistic of the batch against a reference CDF.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the report passes iff sqrt(n) D <= c(alpha).  ``batch.values``
    is sorted in place, then walked in ``_BLOCK``-entry blocks: each block
    holds its CDF values and the levels k/n for its k (the same doubles as
    the integer quotients), so the running D+ and D- are those of the
    full-array formula and memory is O(block) beyond the batch.
    """
    x = batch.values
    n = x.size
    if n == 0:
        raise ValueError("empty sample batch")
    x.sort()
    levels = np.empty(min(n, _BLOCK) + 1)
    offsets = np.arange(levels.size, dtype=float)
    gap = np.empty(levels.size - 1)
    # prev is the CDF at the previous block's last entry
    d_plus = d_minus = prev = -math.inf
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        f = np.asarray(cdf(x[a : a + m]), dtype=float)
        # written so that a NaN, in the sample or from the CDF, fails them
        if not (f[0] >= prev) or not np.all(f[1:] >= f[:-1]):
            raise ValueError("reference CDF is not monotone on the sample")
        if a == 0:
            first = f[0]
        prev = f[-1]
        # levels[k] = (a + k)/n, so i/n = levels[1:] and (i-1)/n = levels[:-1]
        # for the block's i = a+1..a+m
        lv = levels[: m + 1]
        np.add(offsets[: m + 1], a, out=lv)
        np.divide(lv, n, out=lv)
        g = gap[:m]
        d_plus = max(d_plus, float(np.max(np.subtract(lv[1:], f, out=g))))
        d_minus = max(d_minus, float(np.max(np.subtract(f, lv[:-1], out=g))))
    if first < 0.0 or prev > 1.0:
        raise ValueError("reference CDF leaves [0, 1]")
    d = max(d_plus, d_minus)
    scaled = math.sqrt(n) * d
    threshold = kolmogorov_threshold(alpha)
    return KSReport(n, d, scaled, alpha, threshold, scaled <= threshold)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def ks_over_seeds(
    seeds: Sequence[int], n: int, cdf: Callable, alpha: float = KS_ALPHA
) -> dict[Generator, list[KSReport]]:
    """KS reports of both generators across a seed table, each list in seed order.

    Each (generator, seed) job is ``ks_statistic(sample(generator, seed, n))``
    and owns its batch.  The jobs run on one pool of min(usable CPUs, jobs)
    threads, so ``cdf`` is called from several threads at once; an error in
    any job is raised here, the first in job order (self-difference seeds,
    then product seeds).
    """
    # self-difference jobs first: they draw twice the normals
    order = (Generator.PRODUCT_SELF_DIFFERENCE, Generator.NORMAL_PRODUCT)
    jobs = [(g, s) for g in order for s in seeds]
    workers = max(1, min(_usable_cpus(), len(jobs)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(lambda job: ks_statistic(sample(*job, n), cdf, alpha), jobs))
    k = len(seeds)
    return {g: reports[i * k : (i + 1) * k] for i, g in enumerate(order)}
