import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from lclab import dist, mc
from lclab.mc import Generator
from lclab.quadrature import adaptive_quad

# Scaled KS statistics of the committed seed table at n = 10^6 against the
# Laplace CDF, frozen from the first oracle run of the Box-Muller sampler
# (numpy's log and tan of the uniforms of a seeded SFC64 stream).
GOLDEN_SCALED = {
    101: 0.683664680483,
    102: 0.941367393100,
    103: 0.988950803928,
    104: 0.771976324782,
    105: 1.020336181444,
    106: 0.604102895870,
    107: 0.770108054684,
    108: 0.815487857486,
    109: 1.129025593645,
    110: 1.115124431254,
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
    st.sampled_from(list(Generator)),
    st.integers(min_value=1, max_value=40_000),
    st.integers(min_value=1, max_value=40_000),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_shorter_sample_is_a_prefix_of_a_longer_one(generator, n, m, seed):
    # value j owns uniforms w*j .. w*j + w - 1, so the values do not depend
    # on n; up to 40000 values cross the generation block boundaries
    n, m = max(n, m), min(n, m)
    assert np.array_equal(mc.sample(generator, seed, n).values[:m], mc.sample(generator, seed, m).values)


@pytest.mark.parametrize("generator", list(Generator))
def test_seed_is_taken_mod_2_64(generator):
    a = mc.sample(generator, -5, 1000)
    assert np.array_equal(a.values, mc.sample(generator, 2**64 - 5, 1000).values)
    assert a.seed == -5


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
    values = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 1, 100).values
    assert mc.ks_statistic(values, 0.001).threshold == pytest.approx(1.949, abs=5e-4)
    assert mc.ks_statistic(values, 0.01).threshold == pytest.approx(1.628, abs=5e-4)
    with pytest.raises(ValueError):
        mc.ks_statistic(values, 0.0)


def test_bad_alpha_leaves_the_batch_unsorted():
    values = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 1, 100).values
    drawn = values.copy()
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            mc.ks_statistic(values, alpha)
        assert np.array_equal(values, drawn)


def test_ks_on_exact_quantiles_gives_half_over_n():
    # x_(i) at the (i - 1/2)/n Laplace quantiles minimizes D at exactly 1/(2n)
    n = 1000
    p = (np.arange(1, n + 1) - 0.5) / n
    quantiles = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    report = mc.ks_statistic(quantiles, alpha=0.001)
    assert report.statistic == pytest.approx(1.0 / (2 * n), abs=1e-12)
    assert report.passed


def test_ks_rejects_empty_and_nonmonotone():
    with pytest.raises(ValueError, match="empty"):
        mc.ks_statistic(np.array([]))


def test_ks_rejects_nan():
    # a NaN in the sample is an error, not a KS rejection: first, inside the
    # first KS block, at the first entry of the second block, and everywhere
    drawn = mc.sample(Generator.NORMAL_PRODUCT, 1, mc._BLOCK + 100).values
    for k in (0, 37, mc._BLOCK, slice(None)):
        values = drawn.copy()
        values[k] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            mc.ks_statistic(values)


@pytest.fixture(scope="module")
def golden_table():
    return mc.ks_over_seeds(mc.GOLDEN_SEEDS, 10**6)


def test_golden_seed_table_against_laplace(golden_table):
    reports = golden_table[Generator.PRODUCT_SELF_DIFFERENCE]
    passed = sum(r.passed for r in reports)
    assert passed >= 9
    for seed, report in zip(mc.GOLDEN_SEEDS, reports):
        assert report.scaled == pytest.approx(GOLDEN_SCALED[seed], rel=1e-9)


def test_product_law_fails_ks_against_laplace(golden_table):
    # brute-force CDF distance 0.0985 >> any KS acceptance band at n = 10^6
    reports = golden_table[Generator.NORMAL_PRODUCT]
    assert all(not r.passed for r in reports)
    expected_scale = math.sqrt(10**6) * CDF_SUP_DISTANCE
    for r in reports:
        assert r.scaled == pytest.approx(expected_scale, rel=0.02)


def test_cdf_sup_distance_pinned_by_quadrature():
    # the difference is stationary at x ~ 0.4631 (where K0(x)/pi crosses
    # the Laplace density); probe a grid plus the stationary point itself.
    # For x > 0 the product CDF is 1/2 + int_0^x K0(t)/pi dt.
    xs = np.append(np.linspace(0.01, 6.0, 400), 0.4631312293)
    pdf = dist.normal_product().pdf
    sup = max(
        abs(0.5 + adaptive_quad(pdf, 0.0, x, tol_abs=1e-10).value - dist.laplace_cdf(x))
        for x in map(float, xs)
    )
    assert sup == pytest.approx(CDF_SUP_DISTANCE, abs=1e-6)
    assert sup > 0.01


def test_ks_report_dict_keys():
    report = mc.ks_statistic(mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 1000).values, 0.01)
    payload = report.as_dict()
    assert set(payload) == {"n", "D", "scaled", "alpha", "threshold", "pass"}
    assert payload["threshold"] == pytest.approx(1.628, abs=5e-4)


def _reference(generator, seed, n):
    # the stream definition as one full-array expression: value j owns
    # uniforms w*j .. w*j + w - 1 of the seeded SFC64 generator; returns the
    # (n, w) uniforms and the values made of them
    tag, w = mc._STREAMS[generator]
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed % 2**64, tag])))
    u = rng.random(w * n).reshape(n, w)
    if w == 2:
        t = np.tan(u[:, 1] * (2.0 * math.pi))
        return u, (np.log(1.0 - u[:, 0]) * -2.0) * (t / (t * t + 1.0))
    t = np.tan((u[:, 1] + u[:, 3]) * math.pi)
    radii = np.sqrt(np.log(1.0 - u[:, 0]) * np.log(1.0 - u[:, 2])) * 2.0
    return u, radii * ((1.0 - t * t) / (t * t + 1.0))


def _pair_normals(u):
    # the explicit Box-Muller normals of the uniform rows u: the pair (u, u')
    # gives r cos a and r sin a with r^2 = -2 ln(1 - u) and a = 2 pi u'.
    # Columns z0, z1 (normal-product) or z0, z1, z2, z3, where (z0, z2) come
    # from (u0, u1) and (z1, z3) from (u2, u3)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    a = u[:, 1::2] * (2.0 * math.pi)
    cos, sin = r * np.cos(a), r * np.sin(a)
    if u.shape[1] == 2:
        return np.column_stack([cos[:, 0], sin[:, 0]])
    return np.column_stack([cos[:, 0], cos[:, 1], sin[:, 0], sin[:, 1]])


def _product_of_pair_normals(u):
    z = _pair_normals(u)
    values = z[:, 0] * z[:, 1]
    return values if u.shape[1] == 2 else values - z[:, 2] * z[:, 3]


def _product_bound(u):
    # |sample - product of the pair normals| per value, derived (to first
    # order in the unit roundoff ε = eps/2) with log, tan, sin and cos within
    # 1 ulp (2ε relative), as numpy validates them, and the rest rounded once:
    # - normal-product: both sides use the same angle a = fl(2π u'). r² t/(1 + t²)
    #   is within 8ε relative of r² sin a cos a (log 2ε, tan 2ε through a map of
    #   condition ≤ 1, t² + 1 2ε, divide ε, multiply ε); (r cos a)(r sin a) within
    #   11ε (r 2ε and each of cos, sin 2ε plus a multiply, then the product).
    #   With |sin a cos a| ≤ 1/2 that is (4 + 5.5)ε r² < 5 eps r².
    # - product-self-difference: 2 fl(π fl(u1 + u3)) is within 12π ε of
    #   fl(2π u1) + fl(2π u3), which moves cos(a + b) by as much: the larger term.
    #   The rest: r1 r2 = 2 sqrt(ln ln) within 3.5ε, (1 - t²)/(1 + t²) within 7ε
    #   absolute, the last multiply ε, and the reference z0 z1 - z2 z3 within 12ε
    #   r1 r2 (|cos a cos b| + |sin a sin b| ≤ 1). In all (12π + 23.5)ε < 31 eps r1 r2.
    eps = np.finfo(float).eps
    r2 = -2.0 * np.log(1.0 - u[:, 0::2])
    if u.shape[1] == 2:
        return 5 * eps * r2[:, 0]
    return 31 * eps * np.sqrt(r2[:, 0] * r2[:, 1])


def _block_sizes(generator):
    # around the sampler's own values per block: the rows of its first
    # kernel call in a batch of several blocks
    n = mc._BLOCK + 1
    with mock.patch.object(mc, "_pair_values", wraps=mc._pair_values) as kernel:
        mc.sample(generator, 0, n)
    b = len(kernel.call_args_list[0].args[0])
    assert kernel.call_count > 1 and b < n
    return (1, b - 1, b, b + 1, 3 * b + 7)


@pytest.mark.parametrize("generator", list(Generator))
def test_blocked_sampler_matches_full_array_reference(generator):
    for n in _block_sizes(generator):
        assert np.array_equal(mc.sample(generator, 101, n).values, _reference(generator, 101, n)[1])


@pytest.mark.parametrize("generator", list(Generator))
def test_blocked_sampler_matches_reference_at_chunk_offsets(generator, monkeypatch):
    # smaller blocks start at other value offsets, down to one value a block
    n, w = 1000, mc._STREAMS[generator][1]
    expected = _reference(generator, 7, n)[1]
    for block in (w, 3 * w, 2**10):
        monkeypatch.setattr(mc, "_BLOCK", block)
        assert np.array_equal(mc.sample(generator, 7, n).values, expected)


@pytest.mark.parametrize("generator", list(Generator))
@pytest.mark.parametrize("seed", mc.GOLDEN_SEEDS[:2])
def test_pair_normals_are_independent_standard_normals(generator, seed):
    # the sampler's law rests on this, not on the Laplace identity: each
    # normal slot of a value, r cos a or r sin a of its pair, passes KS against
    # the normal CDF at alpha = 0.001, and no two slots correlate beyond 4 sigma
    z = _pair_normals(_reference(generator, seed, 10**6)[0])
    off_diagonal = np.corrcoef(z.T)[np.triu_indices(z.shape[1], k=1)]
    assert np.all(np.abs(off_diagonal) <= 4.0 / math.sqrt(z.shape[0]))
    for column in z.T:
        assert _textbook_ks(column, ndtr) <= mc.kolmogorov_threshold(0.001) / math.sqrt(column.size)


@pytest.mark.parametrize("generator", list(Generator))
@pytest.mark.parametrize("seed", mc.GOLDEN_SEEDS[:2])
def test_sample_is_the_product_of_pair_normals(generator, seed):
    # at the golden seeds and n, value j is z0 z1 (normal-product) or
    # z0 z1 - z2 z3 of the very normals the law test above checks, to within
    # the round-off bound derived in _product_bound
    n = 10**6
    u, _ = _reference(generator, seed, n)
    error = np.abs(mc.sample(generator, seed, n).values - _product_of_pair_normals(u))
    assert np.all(error <= _product_bound(u))


#: The largest uniform: 1 - u = 2^-53 caps r^2 at 106 ln 2 = 73.5, r at 8.6
TOP = 1.0 - 2.0**-53


@pytest.mark.parametrize("generator", list(Generator))
def test_kernel_at_the_uniform_ends_and_the_tan_poles(generator):
    # u = 0 (r = 0), u = TOP (the radius cap) and angles u' at tan's poles
    # (a = pi/2, 3pi/2, or a + b there for the self-difference) give finite
    # values, raise no floating-point warning, and agree with the pair normals
    ends, angles = (0.0, 0.5, TOP), (0.0, 0.125, 0.25, 0.5, 0.75, TOP)
    if mc._STREAMS[generator][1] == 2:
        u = np.array([(x, a) for x in ends for a in angles])
    else:
        u = np.array([(x, a, y, a) for x in ends for y in ends for a in angles])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        out = mc._pair_values(u)
    assert np.all(np.isfinite(out))
    assert np.all(out[u[:, 0] == 0.0] == 0.0)
    assert np.all(np.abs(out - _product_of_pair_normals(u)) <= _product_bound(u))
    # the cap itself: z0 z1 = r^2/2 = 53 ln 2 at a = pi/4, and
    # z0 z1 - z2 z3 = r1 r2 = 106 ln 2 at a + b = 0
    row, cap = ((TOP, 0.125), 53) if u.shape[1] == 2 else ((TOP, 0.0, TOP, 0.0), 106)
    assert out[np.all(u == row, axis=1)].item() == pytest.approx(cap * math.log(2.0), rel=1e-15)


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
        values = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 104, n).values
        report = mc.ks_statistic(values)
        assert report.statistic == _textbook_ks(values, dist.laplace_cdf)
    n = 1000
    p = (np.arange(1, n + 1) - 0.5) / n
    quantiles = np.where(p <= 0.5, np.log(2.0 * p), -np.log(2.0 * (1.0 - p)))
    report = mc.ks_statistic(quantiles)
    assert report.statistic == _textbook_ks(quantiles, dist.laplace_cdf)


def test_ks_statistic_sorts_batch_in_place():
    # the walk needs the sorted sample and the batch is the job's own, so no
    # copy is made: the sample comes back sorted, with the report of a sample
    # sorted beforehand
    values = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, mc._BLOCK + 10_000).values
    presorted = np.sort(values)
    report = mc.ks_statistic(values)
    assert np.array_equal(values, presorted)
    assert report == mc.ks_statistic(presorted)


def test_ks_statistic_memory_is_blocks_beyond_the_batch():
    values = mc.sample(Generator.PRODUCT_SELF_DIFFERENCE, 101, 10**6).values
    tracemalloc.start()
    try:
        mc.ks_statistic(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * values.nbytes


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ks_over_seeds_equals_serial_reports(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    seeds, n = (101, 102, 103, 104, 105), mc._BLOCK + 3
    serial = {g: [mc.ks_statistic(mc.sample(g, s, n).values) for s in seeds] for g in Generator}
    assert mc.ks_over_seeds(seeds, n) == serial


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ks_over_seeds_raises_a_failing_job(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    seeds, n = (101, 102, 103, 104), 1000
    sample = mc.sample

    def fail(jobs):
        # the jobs named in jobs draw an all-NaN batch or an empty one, which
        # ks_statistic rejects with different messages
        def broken_sample(generator, seed, n):
            how = jobs.get((generator, seed))
            if how is None:
                return sample(generator, seed, n)
            values = np.full(n, np.nan) if how == "nan" else np.empty(0)
            return mc.SampleBatch(generator, seed, n, values)

        monkeypatch.setattr(mc, "sample", broken_sample)

    fail({(Generator.NORMAL_PRODUCT, 103): "nan"})
    with pytest.raises(ValueError, match="NaN"):
        mc.ks_over_seeds(seeds, n)
    # the self-difference jobs come first, then seed order
    fail(
        {
            (Generator.NORMAL_PRODUCT, 102): "empty",
            (Generator.PRODUCT_SELF_DIFFERENCE, 103): "nan",
        }
    )
    with pytest.raises(ValueError, match="NaN"):
        mc.ks_over_seeds(seeds, n)
    fail(
        {
            (Generator.PRODUCT_SELF_DIFFERENCE, 102): "empty",
            (Generator.PRODUCT_SELF_DIFFERENCE, 103): "nan",
        }
    )
    with pytest.raises(ValueError, match="empty"):
        mc.ks_over_seeds(seeds, n)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_ks_over_seeds_memory_is_one_batch_per_worker(monkeypatch, cpus):
    # each job owns and sorts its one batch, so at most one batch per thread
    # is alive at a time; at n = 10^6 a batch outweighs a job's O(block) buffers
    _cpus(monkeypatch, cpus)
    n = 10**6
    tracemalloc.start()
    try:
        mc.ks_over_seeds(mc.GOLDEN_SEEDS, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cpus * 1.5 * 8 * n
