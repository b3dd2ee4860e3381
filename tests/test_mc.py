import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from lclab import dist, mc
from lclab.mc import Generator

# Scaled KS statistics of the committed seed table at n = 10^6 against the
# Laplace CDF, frozen from the sampling pipeline's first oracle run.
GOLDEN_SCALED = {
    101: 1.209688128325,
    102: 1.111116988452,
    103: 0.747317520855,
    104: 0.905700190296,
    105: 0.693423011847,
    106: 0.753630164568,
    107: 0.722423889910,
    108: 0.987254494405,
    109: 1.371961057392,
    110: 1.044766447954,
}

# sup |F_product - F_laplace| = 0.0985 at x ~ 0.463 (quadrature), so the
# product-law KS statistic at n = 10^6 scales to ~98.5
CDF_SUP_DISTANCE = 0.0985421698372


def test_determinism_bit_exact():
    a = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 42, 50_000)
    b = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 42, 50_000)
    assert np.array_equal(a.values, b.values)


def test_different_seeds_differ():
    a = mc.sample(Generator.NORMAL_PRODUCT, 1, 1000)
    b = mc.sample(Generator.NORMAL_PRODUCT, 2, 1000)
    assert not np.array_equal(a.values, b.values)


def test_generators_are_domain_separated():
    a = mc.sample(Generator.NORMAL_PRODUCT, 9, 1000)
    b = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 9, 1000)
    assert not np.array_equal(a.values, b.values)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=5000),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**63 - 1),
)
def test_chunked_generation_matches_single_pass(n, k, seed):
    # k > n leaves some pieces empty
    single = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, seed, n)
    chunked = _values_in_pieces(Generator.PRODUCT_SELF_DIFFERENCE, seed, n, k)
    assert np.array_equal(single.values, chunked)


def test_values_finite():
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 3, 100_000)
    assert np.all(np.isfinite(batch.values))


def test_selfdiff_sample_mean_within_4_sigma():
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 10**6)
    # symmetric law, variance 2: 4 sigma band for the mean
    assert abs(batch.values.mean()) <= 4.0 * math.sqrt(2.0 / 10**6)


def test_product_second_moment_within_4_sigma():
    batch = mc.sample(Generator.NORMAL_PRODUCT, 101, 10**6)
    # E (X1 X2)^2 = 1 and E (X1 X2)^4 = 9, so var of the m2 estimator is 8/n
    m2 = float((batch.values**2).mean())
    assert abs(m2 - 1.0) <= 4.0 * math.sqrt(8.0 / 10**6)


def test_sample_validates_arguments():
    with pytest.raises(ValueError):
        mc.sample(Generator.NORMAL_PRODUCT, 1, 0)


def test_kolmogorov_thresholds():
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 1, 100)
    assert mc.ks_statistic(batch, dist.laplace_cdf, 0.001).threshold == pytest.approx(1.949, abs=5e-4)
    assert mc.ks_statistic(batch, dist.laplace_cdf, 0.01).threshold == pytest.approx(1.628, abs=5e-4)
    with pytest.raises(ValueError):
        mc.ks_statistic(batch, dist.laplace_cdf, 0.0)


def test_ks_on_exact_quantiles_gives_half_over_n():
    # x_(i) at the (i - 1/2)/n Laplace quantiles minimizes D at exactly 1/(2n)
    n = 1000
    p = (np.arange(1, n + 1) - 0.5) / n
    quantiles = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    batch = mc.SampleBatch(Generator.PRODUCT_SELF_DIFFERENCE, 0, n, quantiles)
    report = mc.ks_statistic(batch, dist.laplace_cdf, alpha=0.001)
    assert report.statistic == pytest.approx(1.0 / (2 * n), abs=1e-12)
    assert report.passed


def test_ks_rejects_empty_and_nonmonotone():
    empty = mc.SampleBatch(Generator.NORMAL_PRODUCT, 0, 1, np.array([]))
    with pytest.raises(ValueError):
        mc.ks_statistic(empty, dist.laplace_cdf)
    batch = mc.sample(Generator.NORMAL_PRODUCT, 1, 100)
    with pytest.raises(ValueError):
        mc.ks_statistic(batch, lambda x: -x)
    with pytest.raises(ValueError):
        mc.ks_statistic(batch, lambda x: dist.laplace_cdf(x) + 0.5)
    # monotone inside each KS block but dropping from the last entry of the
    # first block to the first entry of the second
    wide = mc.sample(Generator.NORMAL_PRODUCT, 1, mc._BLOCK + 100)
    cut = np.sort(wide.values)[mc._BLOCK]
    with pytest.raises(ValueError, match="not monotone"):
        mc.ks_statistic(wide, lambda x: dist.laplace_cdf(x) - 0.25 * (x >= cut))


def test_golden_seed_table_against_laplace():
    reports = mc.ks_over_seeds(
        Generator.PRODUCT_SELF_DIFFERENCE, mc.GOLDEN_SEEDS, 10**6, dist.laplace_cdf, 0.001
    )
    passed = sum(r.passed for r in reports)
    assert passed >= 9
    for seed, report in zip(mc.GOLDEN_SEEDS, reports):
        assert report.scaled == pytest.approx(GOLDEN_SCALED[seed], rel=1e-9)


def test_product_law_fails_ks_against_laplace():
    # brute-force CDF distance 0.0985 >> any KS acceptance band at n = 10^6
    reports = mc.ks_over_seeds(
        Generator.NORMAL_PRODUCT, mc.GOLDEN_SEEDS, 10**6, dist.laplace_cdf, 0.001
    )
    assert all(not r.passed for r in reports)
    expected_scale = math.sqrt(10**6) * CDF_SUP_DISTANCE
    for r in reports:
        assert r.scaled == pytest.approx(expected_scale, rel=0.02)


def test_cdf_sup_distance_pinned_by_quadrature():
    # the difference is stationary at x ~ 0.4631 (where K0(x)/pi crosses
    # the Laplace density); probe a grid plus the stationary point itself
    xs = np.append(np.linspace(0.01, 6.0, 400), 0.4631312293)
    sup = max(
        abs(dist.normal_product_cdf(float(x), 1e-10) - dist.laplace_cdf(float(x))) for x in xs
    )
    assert sup == pytest.approx(CDF_SUP_DISTANCE, abs=1e-6)
    assert sup > 0.01


def test_ks_report_dict_keys():
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 1000)
    report = mc.ks_statistic(batch, dist.laplace_cdf, 0.01)
    payload = report.as_dict()
    assert set(payload) == {"n", "D", "scaled", "alpha", "threshold", "pass"}
    assert payload["threshold"] == pytest.approx(1.628, abs=5e-4)


def _reference_uniforms(key, start, count):
    # the counter definition as one full-array expression
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = np.uint64(key) + (idx + np.uint64(1)) * mc._GOLDEN_GAMMA
    z = (z ^ (z >> np.uint64(30))) * mc._MIX1
    z = (z ^ (z >> np.uint64(27))) * mc._MIX2
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)


def _reference_values(generator, seed, n):
    w = mc._NORMALS_PER_VALUE[generator]
    key = mc._stream_key(generator, seed)
    z = ndtri(_reference_uniforms(key, 0, w * n).reshape(n, w))
    if generator is Generator.NORMAL_PRODUCT:
        return z[:, 0] * z[:, 1]
    return z[:, 0] * z[:, 1] - z[:, 2] * z[:, 3]


def _values_in_pieces(generator, seed, n, k):
    # values 0..n-1 written by _values_for_range in k contiguous pieces
    out = np.empty(n)
    key = mc._stream_key(generator, seed)
    bounds = np.linspace(0, n, k + 1, dtype=int)
    for lo, hi in zip(bounds, bounds[1:]):
        mc._values_for_range(generator, key, int(lo), out[lo:hi])
    return out


def _block_sizes(generator):
    b = mc._BLOCK // mc._NORMALS_PER_VALUE[generator]
    return (1, b - 1, b, b + 1, 3 * b + 7)


@pytest.mark.parametrize("generator", list(Generator))
def test_blocked_sampler_matches_full_array_reference(generator):
    for n in _block_sizes(generator):
        expected = _reference_values(generator, 101, n)
        assert np.array_equal(mc.sample(generator, 101, n).values, expected)


@pytest.mark.parametrize("generator", list(Generator))
def test_blocked_sampler_matches_reference_at_chunk_offsets(generator):
    # chunks start at non-zero, non-block-aligned value offsets
    n = _block_sizes(generator)[-1]
    expected = _reference_values(generator, 7, n)
    for k in (2, 3, 5):
        assert np.array_equal(_values_in_pieces(generator, 7, n, k), expected)


def test_sample_memory_is_output_plus_block_buffers():
    n = 10**6
    tracemalloc.start()
    try:
        batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.values.nbytes == 8 * n
    assert peak <= 2.5 * batch.values.nbytes


def _textbook_ks(values, cdf):
    x = np.sort(values)
    f = cdf(x)
    n = x.size
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))


def test_ks_statistic_equals_textbook_formula():
    b = mc._BLOCK
    for n in (1, b - 1, b, b + 1, 200_001):
        batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 104, n)
        report = mc.ks_statistic(batch, dist.laplace_cdf)
        assert report.statistic == _textbook_ks(batch.values, dist.laplace_cdf)
    n = 1000
    p = (np.arange(1, n + 1) - 0.5) / n
    quantiles = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    exact = mc.SampleBatch(Generator.PRODUCT_SELF_DIFFERENCE, 0, n, quantiles)
    report = mc.ks_statistic(exact, dist.laplace_cdf)
    assert report.statistic == _textbook_ks(quantiles, dist.laplace_cdf)


def test_ks_statistic_leaves_batch_unchanged():
    # `lclab sample --ks` writes the CSV from the same batch after the test
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 10_000)
    before = batch.values.copy()
    mc.ks_statistic(batch, dist.laplace_cdf)
    assert np.array_equal(batch.values, before)


def test_ks_statistic_memory_is_one_sorted_copy_plus_blocks():
    batch = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 10**6)
    tracemalloc.start()
    try:
        mc.ks_statistic(batch, dist.laplace_cdf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * batch.values.nbytes


@pytest.mark.parametrize("cpus", [1, 2])
def test_ks_over_seeds_equals_serial_reports(monkeypatch, cpus):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    seeds, n = (101, 102, 103, 104, 105), mc._BLOCK + 3
    for generator in Generator:
        serial = [mc.ks_statistic(mc.sample(generator, s, n), dist.laplace_cdf, 0.01) for s in seeds]
        assert mc.ks_over_seeds(generator, seeds, n, dist.laplace_cdf, 0.01) == serial


@pytest.mark.parametrize("cpus", [1, 2])
def test_ks_over_seeds_raises_a_failing_job(monkeypatch, cpus):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    seeds, n = (101, 102, 103, 104), 1000
    lowest = float(mc.sample(Generator.NORMAL_PRODUCT, 103, n).values.min())

    def cdf(x):
        # leaves [0, 1] on seed 103's sample only
        f = dist.laplace_cdf(x)
        return f - 1.0 if x[0] == lowest else f

    with pytest.raises(ValueError, match="leaves"):
        mc.ks_over_seeds(Generator.NORMAL_PRODUCT, seeds, n, cdf)
