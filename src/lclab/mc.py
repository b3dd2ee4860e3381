"""Seeded Monte Carlo sampling and Kolmogorov-Smirnov goodness of fit.

Each batch draws from its own ``np.random.Generator`` over an SFC64 bit
generator seeded by ``SeedSequence([seed mod 2^64, tag])``, where the tag
is the generator's domain, and turns its uniforms u = k 2^-53 in [0, 1)
into Box-Muller pairs (Box & Muller, Ann. Math. Stat. 29, 1958): a pair
(u, u') is the normals r cos a and r sin a with r^2 = -2 ln(1 - u) and
a = 2 pi u'.  1 - u is exact and at least 2^-53, so r is at most
sqrt(106 ln 2) = 8.6 sigma.  A value is formed from its pairs' radii and
angles, not from the normals themselves, by one ``np.log`` per pair and
one ``np.tan`` (see ``_pair_values``).  Value j of a generator consuming
w uniforms per value owns uniforms ``w*j .. w*j + w - 1`` of that stream,
so the values do not depend on the block size and a shorter batch is a
prefix of a longer one with the same seed.

Generation is blocked and in place: ``random(out=)`` fills a value-major
``(m, w)`` block of uniforms, and the log and tan run over two contiguous
scratch columns of m entries; block and columns share one ``_BLOCK``-double
buffer, so a batch needs its output plus O(block) memory.

``ks_statistic`` sorts the batch in place and walks it in blocks of the
same size, so it needs O(block) beyond the batch.  ``ks_over_seeds`` runs
the seed table of both generators, one job per (generator, seed), on one
pool of min(usable CPUs, jobs) threads (the process's CPU affinity, else
the CPU count); there is no knob.  numpy's uniform generation, ufuncs and
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
#: same seed draw from different streams, and the uniforms per value
_STREAMS = {
    Generator.NORMAL_PRODUCT: (0x4E50, 2),
    Generator.PRODUCT_SELF_DIFFERENCE: (0x505344, 4),
}


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draws: (generator, seed, n) determines values bit-exactly.

    Bit-exact for one numpy build and SIMD dispatch: the SFC64 uniforms
    are fixed, and the arithmetic rounds the same in any loop, but numpy
    runs ``log`` and ``tan`` through loops chosen by the CPU features it
    dispatches to (AVX-512 ones where it dispatches X86_V4, others
    elsewhere), which may differ in the last bit.  So another CPU, numpy
    build or ``NPY_DISABLE_CPU_FEATURES`` setting may move a value by an
    ulp or so, and the golden statistics with it; the law of the draws
    depends on none of them.
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


#: Doubles per generation block: one 512 KiB buffer, which fits a 2 MiB L2
#: cache, holds a block's uniforms and its two scratch columns
_BLOCK = 1 << 16


def _pair_values(u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the values of the uniforms ``u`` (one row per value) into out.

    A Box-Muller pair (u, u') is r (cos a, sin a) with r^2 = -2 ln(1 - u)
    and a = 2 pi u'.  ``normal-product`` (rows u, u'):
    z0 z1 = r^2 t / (1 + t^2) with t = tan a.  ``product-self-difference``
    (rows u0 u1 u2 u3) pairs (z0, z2) from (u0, u1) and (z1, z3) from
    (u2, u3): z0 z1 - z2 z3 = r1 r2 cos(a + b)
    = 2 sqrt(ln(1 - u0) ln(1 - u2)) (1 - t^2) / (1 + t^2) with
    t = tan(pi (u1 + u3)).  ``scratch`` holds two contiguous columns of
    at least len(out) entries each; log and tan run over them, as on a
    strided column they take a slower loop.
    """
    m = out.size
    x, t = scratch[0, :m], scratch[1, :m]
    np.subtract(1.0, u[:, 0], out=x)  # exact, in (0, 1]
    np.log(x, out=x)
    if u.shape[1] == 2:
        # out = -2 ln(1 - u) t / (1 + t^2)
        np.multiply(u[:, 1], 2.0 * math.pi, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=out)
        np.add(out, 1.0, out=out)
        np.divide(t, out, out=t)
        np.multiply(x, -2.0, out=x)
        np.multiply(x, t, out=out)
        return
    # x = r1 r2, then out = x (1 - t^2) / (1 + t^2)
    np.subtract(1.0, u[:, 2], out=t)
    np.log(t, out=t)
    np.multiply(x, t, out=x)
    np.sqrt(x, out=x)
    np.multiply(x, 2.0, out=x)
    np.add(u[:, 1], u[:, 3], out=t)
    np.multiply(t, math.pi, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=t)
    np.add(out, 1.0, out=out)
    np.divide(t, out, out=t)
    np.multiply(x, t, out=out)


def sample(generator: Generator, seed: int, n: int) -> SampleBatch:
    """Draw n values.

    ``normal-product`` is the product of the two standard normals of one
    Box-Muller pair; ``product-self-difference`` is ``z0 z1 - z2 z3`` of
    two pairs (see ``_pair_values``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    generator = Generator(generator)
    tag, w = _STREAMS[generator]
    seed_seq = np.random.SeedSequence([int(seed) % (1 << 64), tag])
    rng = np.random.Generator(np.random.SFC64(seed_seq))
    values = np.empty(n)
    per_block = min(_BLOCK // (w + 2), n)
    buffer = np.empty((w + 2) * per_block)
    uniforms = buffer[: w * per_block].reshape(per_block, w)
    scratch = buffer[w * per_block :].reshape(2, per_block)
    for a in range(0, n, per_block):
        u = uniforms[: min(per_block, n - a)]
        rng.random(out=u)
        _pair_values(u, values[a : a + u.shape[0]], scratch)
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
    # before the sort, so a bad alpha leaves the batch as it was
    threshold = kolmogorov_threshold(alpha)
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
    kolmogorov_threshold(alpha)  # a bad alpha fails before any job samples
    # self-difference jobs first: they draw twice the uniforms
    order = (Generator.PRODUCT_SELF_DIFFERENCE, Generator.NORMAL_PRODUCT)
    jobs = [(g, s) for g in order for s in seeds]
    workers = max(1, min(_usable_cpus(), len(jobs)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(lambda job: ks_statistic(sample(*job, n), cdf, alpha), jobs))
    k = len(seeds)
    return {g: reports[i * k : (i + 1) * k] for i, g in enumerate(order)}
