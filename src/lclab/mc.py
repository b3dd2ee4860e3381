"""Seeded Monte Carlo sampling and Kolmogorov-Smirnov goodness of fit.

The uniform source is a counter-based SplitMix64 stream: output i is the
SplitMix64 finalizer applied to ``key + (i+1) * GOLDEN``, so any index
range can be generated independently and in parallel with bit-identical
results.  Normals come in Box-Muller pairs: uniforms (u, u') give the
independent standard normals r cos(theta) and r sin(theta), with
r^2 = -2 ln u and theta = 2 pi u', whose product is -ln u * sin(4 pi u').
The transform maps a fixed number of uniforms to a fixed number of normals
(no rejection), so value j of a generator consuming w normals per value
owns exactly the uniform indices ``w*j .. w*j + w - 1``, and each value
costs one log and one sine per pair instead of two inverse normal CDFs.

Generation is blocked and in place: the stream is produced ``_BLOCK``
counter positions at a time through two preallocated buffers that stay
in cache (counter -> SplitMix64 -> uniform -> ln u and sin(4 pi u') ->
product or difference, all with ``out=`` ufuncs on the rows of a
column-major block), so a batch needs its output plus O(block) memory and
stays bit-identical to the full-array definition.

The KS statistic walks the sorted sample in blocks of the same size, so it
needs the sorted values plus O(block).  ``ks_over_seeds`` runs its seeds on
min(usable CPUs, seeds) threads (the process's CPU affinity, else the CPU
count); there is no knob.  numpy ufuncs and the sort release the GIL, so
the time falls with the cores (both generators' golden-seed tables at
n = 10^6, one after the other, take ~1.3-1.4 s on one CPU of a shared
2-vCPU AVX-512 x86-64 host and ~0.6-0.9 s on two, warm, median of 5), and
the reports come back in seed order, bit-identical to one seed after
another.
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

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

class Generator(enum.Enum):
    """Named sampling pipelines."""

    NORMAL_PRODUCT = "normal-product"
    PRODUCT_SELF_DIFFERENCE = "product-self-difference"


#: Per generator: its stream-domain tag, so different generators with the
#: same seed do not share uniform indices, and the normals per value
_STREAMS = {
    Generator.NORMAL_PRODUCT: (np.uint64(0x4E50), 2),
    Generator.PRODUCT_SELF_DIFFERENCE: (np.uint64(0x505344), 4),
}


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draws: (generator, seed, n) determines values bit-exactly.

    Bit-exact for a given numpy build and SIMD dispatch: ``np.log`` runs
    SIMD-dispatched loops, which may round differently on another CPU or
    numpy version; the law of the draws does not depend on either.
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


#: Counter positions per generation block: the two 512 KiB block buffers
#: (mixed bits; uniforms, then their logs and sines) and the row steps fit
#: in a 2 MiB L2 cache.
_BLOCK = 1 << 16


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer applied to z in place; tmp is scratch of z's shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def _stream_key(generator: Generator, seed: int) -> int:
    z = np.array([seed % (1 << 64)], dtype=np.uint64) ^ _STREAMS[generator][0]
    _mix64_into(z, np.empty_like(z))
    return int(z[0])


def _values_for_range(generator: Generator, key: int, lo: int, out: np.ndarray) -> None:
    """Values lo..lo+len(out)-1 of the generator's stream, written into out.

    Row c of a block holds uniform c of each value j (counter w*j + c);
    rows 2p and 2p+1 are the value's Box-Muller pair p.
    """
    w = _STREAMS[generator][1]
    per_block = max(1, min(_BLOCK // w, out.size))
    steps = np.arange(per_block, dtype=np.uint64) * np.uint64(w * _GOLDEN_GAMMA % (1 << 64))
    bits = np.empty(w * per_block, dtype=np.uint64)
    uniforms = np.empty(w * per_block)
    for a in range(0, out.size, per_block):
        m = min(per_block, out.size - a)
        b = bits[: w * m].reshape(w, m)
        z = uniforms[: w * m].reshape(w, m)
        rows = [(key + (w * (lo + a) + c + 1) * _GOLDEN_GAMMA) % (1 << 64) for c in range(w)]
        np.add(steps[:m], np.array(rows, dtype=np.uint64)[:, None], out=b)
        _mix64_into(b, z.view(np.uint64))  # z is scratch until it gets the uniforms
        # 53-bit mantissa (exact as int64), offset by half a lattice cell so 0
        # and 1 are excluded
        np.right_shift(b, np.uint64(11), out=b)
        np.add(b.view(np.int64), 0.5, out=z)
        np.multiply(z, 2.0**-53, out=z)
        # each pair's normal product is -ln u * sin(4 pi u'): the even rows
        # get ln u, the odd rows sin(4 pi u')
        radial, angular = z[0::2], z[1::2]
        np.log(radial, out=radial)
        np.multiply(angular, 4.0 * math.pi, out=angular)
        np.sin(angular, out=angular)
        dst = out[a : a + m]
        np.multiply(z[0], z[1], out=dst)
        if generator is Generator.PRODUCT_SELF_DIFFERENCE:
            # ln u2 sin(4 pi u3) - ln u0 sin(4 pi u1)
            np.multiply(z[2], z[3], out=z[2])
            np.subtract(z[2], dst, out=dst)
        else:
            np.negative(dst, out=dst)


def sample(generator: Generator, seed: int, n: int) -> SampleBatch:
    """Draw n values.

    ``normal-product`` multiplies two independent standard normals per
    value (one Box-Muller pair); ``product-self-difference`` draws four
    (two pairs) and returns ``z1 z2 - z3 z4``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    generator = Generator(generator)
    values = np.empty(n)
    _values_for_range(generator, _stream_key(generator, seed), 0, values)
    return SampleBatch(generator, int(seed), int(n), values)


def kolmogorov_threshold(alpha: float) -> float:
    """c with P(sqrt(n) D > c) -> alpha under the Kolmogorov asymptotics.

    The inverse of the Kolmogorov survival function
    ``2 sum_k (-1)^(k-1) exp(-2 k^2 c^2)``; c(0.01) ~ 1.628, c(0.001) ~ 1.949.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(kolmogi(alpha))


def _ks_sorted(x: np.ndarray, cdf: Callable, alpha: float) -> KSReport:
    """KS report of an ascending sample x, walked in ``_BLOCK``-entry blocks.

    Each block holds its CDF values and the levels k/n for its k (the same
    doubles as the integer quotients), so the running D+ and D- are those
    of the full-array formula and memory is O(block) beyond x.
    """
    n = x.size
    if n == 0:
        raise ValueError("empty sample batch")
    levels = np.empty(min(n, _BLOCK) + 1)
    offsets = np.arange(levels.size, dtype=float)
    gap = np.empty(levels.size - 1)
    # prev is the CDF at the previous block's last entry
    d_plus = d_minus = prev = -math.inf
    for a in range(0, n, _BLOCK):
        m = min(_BLOCK, n - a)
        f = np.asarray(cdf(x[a : a + m]), dtype=float)
        if f[0] < prev or np.any(f[1:] < f[:-1]):
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
        # np.maximum keeps a NaN from the CDF, as one full-array max would
        d_plus = float(np.maximum(d_plus, np.max(np.subtract(lv[1:], f, out=g))))
        d_minus = float(np.maximum(d_minus, np.max(np.subtract(f, lv[:-1], out=g))))
    if first < 0.0 or prev > 1.0:
        raise ValueError("reference CDF leaves [0, 1]")
    d = max(d_plus, d_minus)
    scaled = math.sqrt(n) * d
    threshold = kolmogorov_threshold(alpha)
    return KSReport(n, d, scaled, alpha, threshold, scaled <= threshold)


def ks_statistic(batch: SampleBatch, cdf: Callable, alpha: float = KS_ALPHA) -> KSReport:
    """Exact one-sample KS statistic of the batch against a reference CDF.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the report passes iff sqrt(n) D <= c(alpha).  The batch is not
    modified: a sorted copy is walked.
    """
    return _ks_sorted(np.sort(batch.values), cdf, alpha)


def _ks_of_seed(generator: Generator, seed: int, n: int, cdf: Callable, alpha: float) -> KSReport:
    """Sample one seed and sort the batch it owns in place before the KS walk."""
    batch = sample(generator, seed, n)
    batch.values.sort()
    return _ks_sorted(batch.values, cdf, alpha)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def ks_over_seeds(
    generator: Generator,
    seeds: Sequence[int],
    n: int,
    cdf: Callable,
    alpha: float = KS_ALPHA,
) -> list[KSReport]:
    """KS reports for one generator across a seed table, in seed order.

    The seeds run on min(usable CPUs, seeds) threads, so ``cdf`` is called
    from several threads at once; an error in any job is raised here, the
    first in seed order.
    """
    workers = max(1, min(_usable_cpus(), len(seeds)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda s: _ks_of_seed(generator, s, n, cdf, alpha), seeds))
