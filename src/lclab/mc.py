"""Seeded Monte Carlo sampling and Kolmogorov-Smirnov goodness of fit.

The uniform source is a counter-based SplitMix64 stream: output i is the
SplitMix64 finalizer applied to ``key + (i+1) * GOLDEN``, so any index
range can be generated independently and in parallel with bit-identical
results.  Normal variates are the inverse standard-normal CDF of one
uniform each (monotone and stream-order-stable, unlike rejection
samplers), so value j of a generator consuming w normals per value owns
exactly the uniform indices ``w*j .. w*j + w - 1``.

Generation is blocked and in place: the stream is produced ``_BLOCK``
counter positions at a time through a few preallocated buffers that stay
in cache (counter -> SplitMix64 -> uniform -> ``ndtri`` -> product or
difference, all with ``out=`` ufuncs), so a batch needs its output plus
O(block) memory and stays bit-identical to the counter definition above.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import kolmogi, ndtri

#: Committed seed table used by the acceptance pipeline; golden statistics
#: in the test suite quantify over exactly these seeds.
GOLDEN_SEEDS: tuple[int, ...] = (101, 102, 103, 104, 105, 106, 107, 108, 109, 110)

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# stream-domain tags so different generators with the same seed do not
# share uniform indices
_STREAM_TAG = {
    "normal-product": np.uint64(0x4E50),
    "product-self-difference": np.uint64(0x505344),
}


class Generator(enum.Enum):
    """Named sampling pipelines."""

    NORMAL_PRODUCT = "normal-product"
    PRODUCT_SELF_DIFFERENCE = "product-self-difference"


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible draws: (generator, seed, n) determines values bit-exactly."""

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


#: Counter positions per generation block: the three 512 KiB block buffers
#: (counter steps, mixed bits, uniforms/normals) fit in a 2 MiB L2 cache.
_BLOCK = 1 << 16


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer applied to z in place; tmp is scratch of z's shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def _counter_steps(count: int) -> np.ndarray:
    """i * GOLDEN for i < min(count, _BLOCK): the in-block counter offsets."""
    return np.arange(min(count, _BLOCK), dtype=np.uint64) * _GOLDEN_GAMMA


def _uniforms_into(
    key: int, start: int, steps: np.ndarray, bits: np.ndarray, out: np.ndarray
) -> None:
    """Uniforms at counter positions start..start+len(out)-1, written into out.

    ``steps``, ``bits`` and ``out`` have one length (at most ``_BLOCK``);
    ``out`` doubles as the mixing scratch before it receives the uniforms.
    """
    base = np.uint64((key + (start + 1) * int(_GOLDEN_GAMMA)) % (1 << 64))
    np.add(steps, base, out=bits)
    _mix64_into(bits, out.view(np.uint64))
    # 53-bit mantissa, offset by half a lattice cell so 0 and 1 are excluded
    np.right_shift(bits, np.uint64(11), out=bits)
    np.add(bits, 0.5, out=out)
    np.multiply(out, 2.0**-53, out=out)


def _stream_key(generator: Generator, seed: int) -> int:
    z = np.array([seed % (1 << 64)], dtype=np.uint64) ^ _STREAM_TAG[generator.value]
    _mix64_into(z, np.empty_like(z))
    return int(z[0])


_NORMALS_PER_VALUE = {
    Generator.NORMAL_PRODUCT: 2,
    Generator.PRODUCT_SELF_DIFFERENCE: 4,
}


def _values_for_range(generator: Generator, key: int, lo: int, out: np.ndarray) -> None:
    """Values lo..lo+len(out)-1 of the generator's stream, written into out."""
    w = _NORMALS_PER_VALUE[generator]
    per_block = _BLOCK // w
    steps = _counter_steps(w * out.size)
    bits = np.empty_like(steps)
    normals = np.empty(steps.size)
    for a in range(0, out.size, per_block):
        m = min(per_block, out.size - a)
        z = normals[: w * m]
        _uniforms_into(key, w * (lo + a), steps[: w * m], bits[: w * m], z)
        ndtri(z, out=z)
        z = z.reshape(m, w)
        dst = out[a : a + m]
        np.multiply(z[:, 0], z[:, 1], out=dst)
        if generator is Generator.PRODUCT_SELF_DIFFERENCE:
            np.multiply(z[:, 2], z[:, 3], out=z[:, 2])
            np.subtract(dst, z[:, 2], out=dst)


def sample(generator: Generator, seed: int, n: int) -> SampleBatch:
    """Draw n values.

    ``normal-product`` multiplies two independent standard normals per
    value; ``product-self-difference`` draws four and returns
    ``z1 z2 - z3 z4``.
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


def ks_statistic(batch: SampleBatch, cdf: Callable, alpha: float = 0.001) -> KSReport:
    """Exact one-sample KS statistic of the batch against a reference CDF.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; the report passes iff sqrt(n) D <= c(alpha).
    """
    values = batch.values
    if values.size == 0:
        raise ValueError("empty sample batch")
    x = np.sort(values)
    f = np.asarray(cdf(x), dtype=float)
    if np.any(f[1:] < f[:-1]):
        raise ValueError("reference CDF is not monotone on the sample")
    if f[0] < 0.0 or f[-1] > 1.0:
        raise ValueError("reference CDF leaves [0, 1]")
    n = x.size
    # levels[k] = k/n, so i/n = levels[1:] and (i-1)/n = levels[:-1] for
    # i = 1..n, each the same double as the integer quotient
    levels = np.arange(n + 1, dtype=float)
    np.divide(levels, n, out=levels)
    gap = np.empty(n)
    d_plus = float(np.max(np.subtract(levels[1:], f, out=gap)))
    d_minus = float(np.max(np.subtract(f, levels[:-1], out=gap)))
    d = max(d_plus, d_minus)
    scaled = math.sqrt(n) * d
    threshold = kolmogorov_threshold(alpha)
    return KSReport(n, d, scaled, alpha, threshold, scaled <= threshold)


def ks_over_seeds(
    generator: Generator,
    seeds: Sequence[int],
    n: int,
    cdf: Callable,
    alpha: float = 0.001,
) -> list[KSReport]:
    """KS reports for one generator across a seed table."""
    return [ks_statistic(sample(generator, s, n), cdf, alpha) for s in seeds]
