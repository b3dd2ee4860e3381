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

Generation is blocked: ``random(out=)`` refills one value-major ``(m, w)``
array of ``_BLOCK`` uniforms, whose values are plain numpy expressions,
so a batch needs its output plus O(block) memory.  Block-sized arrays,
here and in ``ks_statistic``, are numpy temporaries; in-place ufuncs stay
on grid-sized arrays (``transform``, ``shape``), where a fresh multi-MB
temporary page-faults on every call, and in ``dist.laplace_cdf``, whose
``np.where`` form measured slower.

``ks_statistic`` tests a sample array against Laplace(0,1), the one law
the theorem names: it sorts the array in place, raises ValueError on a
NaN, and walks it in blocks of the same size with ``dist.laplace_cdf``,
so it needs O(block) beyond the array.  ``ks_over_seeds`` runs the seed
table of both generators, one job per (generator, seed), on one pool of
min(usable CPUs, jobs) threads (the process's CPU affinity, else the CPU
count); there is no knob.  numpy's uniform generation, ufuncs and sort
release the GIL, so the time falls with the cores, and the reports come
back in seed order, bit-identical to one job after another.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
from scipy.special import kolmogi

from .dist import laplace_cdf

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

    Bit-exact for one numpy build and SIMD dispatch: numpy's ``log`` and
    ``tan`` loops follow the CPU features it dispatches to (AVX-512 where
    X86_V4 is on) and may differ in the last bit elsewhere, moving the
    golden statistics but not the law of the draws.
    """

    generator: Generator
    seed: int
    n: int
    values: np.ndarray


@dataclass(frozen=True)
class KSReport:
    """One-sample Kolmogorov-Smirnov outcome against the Laplace(0,1) CDF."""

    n: int
    statistic: float
    scaled: float
    alpha: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        out = asdict(self)
        out["D"], out["pass"] = out.pop("statistic"), out.pop("passed")
        return out


#: Uniforms per generation block and entries per KS block: a block's
#: 512 KiB of uniforms fits a 2 MiB L2 cache
_BLOCK = 1 << 16


def _pair_values(u: np.ndarray) -> np.ndarray:
    """The values of the uniforms ``u``, one row per value.

    A Box-Muller pair (u, u') is r (cos a, sin a) with r^2 = -2 ln(1 - u)
    and a = 2 pi u'.  ``normal-product`` (rows u, u'):
    z0 z1 = r^2 t / (1 + t^2) with t = tan a.  ``product-self-difference``
    (rows u0 u1 u2 u3) pairs (z0, z2) from (u0, u1) and (z1, z3) from
    (u2, u3): z0 z1 - z2 z3 = r1 r2 cos(a + b)
    = 2 sqrt(ln(1 - u0) ln(1 - u2)) (1 - t^2) / (1 + t^2) with
    t = tan(pi (u1 + u3)).  Each ufunc on a strided column writes a
    contiguous temporary, so log and tan take their fast loops.
    """
    x = np.log(1.0 - u[:, 0])  # 1 - u is exact, in (0, 1]
    if u.shape[1] == 2:
        t = np.tan(u[:, 1] * (2.0 * math.pi))
        return (x * -2.0) * (t / (t * t + 1.0))
    t = np.tan((u[:, 1] + u[:, 3]) * math.pi)
    t2 = t * t
    return (np.sqrt(x * np.log(1.0 - u[:, 2])) * 2.0) * ((1.0 - t2) / (t2 + 1.0))


def sample(generator: Generator, seed: int, n: int) -> SampleBatch:
    """Draw n values: z0 z1 of one Box-Muller pair or z0 z1 - z2 z3 of two."""
    if n < 1:
        raise ValueError("n must be >= 1")
    generator = Generator(generator)
    tag, w = _STREAMS[generator]
    seed_seq = np.random.SeedSequence([int(seed) % (1 << 64), tag])
    rng = np.random.Generator(np.random.SFC64(seed_seq))
    values = np.empty(n)
    uniforms = np.empty((min(_BLOCK // w, n), w))
    for a in range(0, n, len(uniforms)):
        u = uniforms[: n - a]
        rng.random(out=u)
        values[a : a + len(u)] = _pair_values(u)
    return SampleBatch(generator, int(seed), int(n), values)


def kolmogorov_threshold(alpha: float) -> float:
    """c with P(sqrt(n) D > c) -> alpha under the Kolmogorov asymptotics.

    The inverse of the Kolmogorov survival function
    ``2 sum_k (-1)^(k-1) exp(-2 k^2 c^2)``; c(0.01) ~ 1.628, c(0.001) ~ 1.949.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(kolmogi(alpha))


def ks_statistic(x: np.ndarray, alpha: float = KS_ALPHA) -> KSReport:
    """Exact one-sample KS statistic of the sample ``x`` against Laplace(0,1).

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the report passes iff sqrt(n) D <= c(alpha).  ``x`` is sorted
    in place, then walked in ``_BLOCK``-entry blocks: each block holds its
    CDF values and the levels k/n for its k (the same doubles as the integer
    quotients), so the running D+ and D- are those of the full-array formula
    and memory is O(block) beyond the sample.
    """
    n = x.size
    if n == 0:
        raise ValueError("empty sample")
    # before the sort, so a bad alpha leaves the sample as it was
    threshold = kolmogorov_threshold(alpha)
    x.sort()
    if np.isnan(x[-1]):  # the sort puts every NaN last
        raise ValueError("sample holds a NaN")
    d_plus = d_minus = -math.inf
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        f = laplace_cdf(x[a : a + m])
        # i/n = levels[1:] and (i-1)/n = levels[:-1] for the block's i = a+1..a+m
        levels = np.arange(a, a + m + 1) / n
        d_plus = max(d_plus, float(np.max(levels[1:] - f)))
        d_minus = max(d_minus, float(np.max(f - levels[:-1])))
    d = max(d_plus, d_minus)
    scaled = math.sqrt(n) * d
    return KSReport(n, d, scaled, alpha, threshold, scaled <= threshold)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def ks_over_seeds(seeds: Sequence[int], n: int) -> dict[Generator, list[KSReport]]:
    """KS reports of both generators across a seed table, each list in seed order.

    Each (generator, seed) job is ``ks_statistic(sample(generator, seed, n).values)``
    and owns its batch.  The jobs run on one pool of min(usable CPUs, jobs)
    threads; an error in any job is raised here, the first in job order
    (self-difference seeds, then product seeds).
    """
    # self-difference jobs first: they draw twice the uniforms
    order = (Generator.PRODUCT_SELF_DIFFERENCE, Generator.NORMAL_PRODUCT)
    jobs = [(g, s) for g in order for s in seeds]
    workers = max(1, min(_usable_cpus(), len(jobs)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(lambda job: ks_statistic(sample(*job, n).values), jobs))
    k = len(seeds)
    return {g: reports[i * k : (i + 1) * k] for i, g in enumerate(order)}
