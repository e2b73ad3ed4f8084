import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from bridgeexit import (
    CrossingEstimate,
    DegenerateEstimate,
    Hyperplane,
    NotSPD,
    RejectionBudgetExceeded,
    RngSpec,
    VerticalBarrier,
    brownian_crossing_exact,
    crossing_curve,
    crossing_probability,
    hw_crossing_probability,
    ld_slope,
)
from bridgeexit import montecarlo as mc
from bridgeexit.montecarlo import estimates_to_csv

import refvalues as ref
from samplers import sample_gaussian_bridge, sample_hw_bridge_rejection

FLOOR = Hyperplane(np.array([0.0, 1.0]), 0.0)
X = np.array([0.0, 0.5])
Y = np.array([1.0, 0.3])
EYE = np.eye(2)


# ---- rng plumbing ---- #


def test_rng_spec_validation():
    RngSpec(0)
    RngSpec(2**64 - 1, 2**32 - 1)
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(2**64)
    with pytest.raises(ValueError):
        RngSpec(0, 2**32)
    with pytest.raises(ValueError):
        RngSpec(0).batch_generator(-1)


def test_rng_streams_are_independent_and_reproducible():
    a = RngSpec(7, 0).batch_generator(3).random(4)
    b = RngSpec(7, 0).batch_generator(3).random(4)
    c = RngSpec(7, 1).batch_generator(3).random(4)
    assert (a == b).all()
    assert not (a == c).all()
    assert RngSpec(7, 0).with_stream(5).stream == 5


# ---- exact bridge sampling ---- #


def test_bridge_endpoints_are_exact():
    path = sample_gaussian_bridge(X, Y, 0.1, EYE, 16, RngSpec(1))
    assert (path.points[0] == X).all()
    assert (path.points[-1] == Y).all()
    assert path.n_segments == 16


def test_bridge_midpoint_marginal_statistics():
    t = 0.2
    cov = np.array([[1.0, 0.4], [0.4, 0.8]])
    n = 4000
    mids = np.array(
        [
            sample_gaussian_bridge(X, Y, t, cov, 8, RngSpec(2, k)).points[4]
            for k in range(n)
        ]
    )
    expect_mean = 0.5 * (X + Y)
    expect_cov = t * 0.25 * cov
    se = np.sqrt(np.diag(expect_cov) / n)
    assert np.abs(mids.mean(axis=0) - expect_mean).max() <= 4 * se.max()
    emp = np.cov(mids.T)
    np.testing.assert_allclose(emp, expect_cov, rtol=0.15, atol=5e-4)


def test_bridge_concentrates_on_the_chord_for_small_horizons():
    t = 1e-3
    inside = 0
    n = 300
    for k in range(n):
        pts = sample_gaussian_bridge(X, Y, t, EYE, 20, RngSpec(3, k)).points
        chord = np.linspace(X, Y, 21)
        if np.abs(pts - chord).max() <= 5 * math.sqrt(t):
            inside += 1
    assert inside >= 0.99 * n


def test_bridge_rejects_bad_inputs():
    with pytest.raises(NotSPD):
        sample_gaussian_bridge(X, Y, 0.1, np.array([[1.0, 2.0], [2.0, 1.0]]),
                               8, RngSpec(0))
    with pytest.raises(ValueError):
        sample_gaussian_bridge(X, Y, -0.1, EYE, 8, RngSpec(0))


# ---- crossing probabilities ---- #


def test_estimate_matches_the_closed_form():
    t = 0.1
    est = crossing_probability(X, Y, t, EYE, FLOOR, 100_000, 50, RngSpec(11))
    exact = brownian_crossing_exact(X, Y, t, EYE, FLOOR)
    assert exact == pytest.approx(math.exp(-2 * 0.5 * 0.3 / t), rel=1e-12)
    assert abs(est.p_hat - exact) <= 3 * est.ci_half_width
    assert est.exponent == pytest.approx(-t * math.log(est.p_hat))
    assert 0.0 <= est.p_hat <= 1.0


def test_straddling_endpoints_cross_surely():
    below = np.array([1.0, -0.2])
    est = crossing_probability(X, below, 0.1, EYE, FLOOR, 1000, 10, RngSpec(0))
    assert est.p_hat == 1.0
    assert est.exponent == 0.0
    assert brownian_crossing_exact(X, below, 0.1, EYE, FLOOR) == 1.0


def test_straddling_endpoints_still_check_the_covariance():
    # the straddle shortcut used to return 1.0 before any covariance check
    below = np.array([1.0, -0.2])
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotSPD):
        crossing_probability(X, below, 0.1, bad, FLOOR, 1000, 10, RngSpec(0))
    with pytest.raises(NotSPD):
        brownian_crossing_exact(X, below, 0.1, bad, FLOOR)


@pytest.mark.parametrize("n_steps", [1, 50])
def test_estimate_projects_a_correlated_covariance_on_a_slanted_barrier(
        n_steps):
    # every other statistical test uses EYE against FLOOR, where a wrong
    # variance rate along the normal would go unseen
    plane = Hyperplane((1.0, -0.3), 0.9)
    y = np.array([0.4, 0.2])
    t = 0.5
    norm = math.hypot(1.0, -0.3)
    d_x = (X[0] - 0.3 * X[1] - 0.9) / norm
    d_y = (y[0] - 0.3 * y[1] - 0.9) / norm
    q = (1.0 - 2 * 0.3 * 0.4 + 0.09 * 0.8) / norm**2
    exact = brownian_crossing_exact(X, y, t, COV2, plane)
    assert exact == pytest.approx(math.exp(-2 * d_x * d_y / (t * q)),
                                  rel=1e-12)
    # the per-step correction is the exact crossing law of the projected
    # bridge, so at any n_steps (at one step plainly) p_hat ~ Binomial(n, exact)
    est = crossing_probability(X, y, t, COV2, plane, 50_000, n_steps,
                               RngSpec(12), workers=1)
    assert abs(est.p_hat - exact) <= 3 * est.ci_half_width
    again = crossing_probability(X, y, t, COV2, plane, 50_000, n_steps,
                                 RngSpec(12), workers=3)
    assert again.p_hat == est.p_hat
    assert again.ci_half_width == est.ci_half_width


def test_correction_removes_coarse_grid_bias():
    t = 0.5
    exact = brownian_crossing_exact(X, Y, t, EYE, FLOOR)
    naive = crossing_probability(X, Y, t, EYE, FLOOR, 100_000, 25, RngSpec(5),
                                 per_step_correction=False)
    fixed = crossing_probability(X, Y, t, EYE, FLOOR, 100_000, 25, RngSpec(5))
    # discrete monitoring alone misses in-between excursions
    assert naive.p_hat < exact - 5 * naive.ci_half_width
    assert abs(fixed.p_hat - exact) <= 3 * fixed.ci_half_width


def test_corrected_estimates_are_resolution_stable():
    t = 0.25
    coarse = crossing_probability(X, Y, t, EYE, FLOOR, 60_000, 50, RngSpec(6))
    fine = crossing_probability(X, Y, t, EYE, FLOOR, 60_000, 500, RngSpec(7))
    gap = abs(coarse.p_hat - fine.p_hat)
    assert gap <= 3 * math.hypot(coarse.ci_half_width, fine.ci_half_width)


def test_worker_count_never_changes_the_estimate():
    t = 0.2
    base = crossing_probability(X, Y, t, EYE, FLOOR, 50_000, 20, RngSpec(42),
                                workers=1)
    for workers in (2, 3, 8):
        est = crossing_probability(X, Y, t, EYE, FLOOR, 50_000, 20, RngSpec(42),
                                   workers=workers)
        assert est.p_hat == base.p_hat
        assert est.ci_half_width == base.ci_half_width


def test_identical_seeds_reproduce_and_streams_differ():
    t = 0.2
    a = crossing_probability(X, Y, t, EYE, FLOOR, 20_000, 20, RngSpec(9, 0))
    b = crossing_probability(X, Y, t, EYE, FLOOR, 20_000, 20, RngSpec(9, 0))
    c = crossing_probability(X, Y, t, EYE, FLOOR, 20_000, 20, RngSpec(9, 1))
    assert a.p_hat == b.p_hat
    assert a.p_hat != c.p_hat


def test_batch_size_does_not_change_the_draws_per_batch_index():
    # merging is a sum of per-batch counts, so only the batch partition
    # matters; identical partitions with different worker counts are covered
    # above, here a different batch size changes the partition and may change
    # the estimate, but determinism per configuration must hold
    t = 0.2
    a = crossing_probability(X, Y, t, EYE, FLOOR, 30_000, 20, RngSpec(10),
                             batch_size=4096)
    b = crossing_probability(X, Y, t, EYE, FLOOR, 30_000, 20, RngSpec(10),
                             batch_size=4096, workers=4)
    assert a.p_hat == b.p_hat


def test_confidence_interval_calibration():
    t = 0.5
    exact = brownian_crossing_exact(X, Y, t, EYE, FLOOR)
    n_runs, n_paths = 200, 2000
    covered = 0
    for k in range(n_runs):
        est = crossing_probability(X, Y, t, EYE, FLOOR, n_paths, 30,
                                   RngSpec(1000 + k))
        if abs(est.p_hat - exact) <= est.ci_half_width:
            covered += 1
    assert 0.90 * n_runs <= covered <= 0.99 * n_runs


def test_degenerate_covariance_is_rejected():
    from bridgeexit import DegenerateCorrelation

    flat_cov = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises((DegenerateCorrelation, NotSPD)):
        crossing_probability(X, Y, 0.1, flat_cov, FLOOR, 100, 10, RngSpec(0))


# ---- slope extraction ---- #


def exact_estimates(t_list, n_paths=10**6):
    out = []
    for t in t_list:
        p = brownian_crossing_exact(X, Y, t, EYE, FLOOR)
        out.append(CrossingEstimate(t, n_paths, p, 0.0, -t * math.log(p), 0))
    return out


def test_slope_fit_recovers_the_exponent_exactly_in_the_flat_case():
    fit = ld_slope(exact_estimates([0.2, 0.1, 0.05]))
    assert fit.intercept == pytest.approx(2 * 0.5 * 0.3, rel=1e-10)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)
    assert fit.max_residual <= 1e-12


def test_slope_fit_needs_three_distinct_horizons():
    with pytest.raises(ValueError):
        ld_slope(exact_estimates([0.2, 0.1]))
    ests = exact_estimates([0.2, 0.1, 0.05])
    dup = ests + [ests[-1]]
    with pytest.raises(ValueError):
        ld_slope(dup)


def test_slope_fit_refuses_empty_counts():
    ests = exact_estimates([0.2, 0.1, 0.05])
    dead = CrossingEstimate(0.01, 1000, 0.0, 0.0, math.inf, 0)
    with pytest.raises(DegenerateEstimate) as err:
        ld_slope(ests + [dead])
    assert "resolvable" in str(err.value)


def test_slope_fit_on_sampled_estimates():
    ests = crossing_curve(X, Y, [0.3, 0.2, 0.15], EYE, FLOOR, 150_000, 50,
                          RngSpec(77), workers=2)
    fit = ld_slope(ests)
    assert fit.intercept == pytest.approx(0.3, rel=0.05)


def test_crossing_curve_offsets_streams_per_horizon():
    t_list = [0.3, 0.2]
    curve = crossing_curve(X, Y, t_list, EYE, FLOOR, 10_000, 20, RngSpec(5, 2))
    manual = [
        crossing_probability(X, Y, t, EYE, FLOOR, 10_000, 20, RngSpec(5, 2 + k))
        for k, t in enumerate(t_list)
    ]
    for got, want in zip(curve, manual):
        assert got.p_hat == want.p_hat


# ---- volatility-model sampler ---- #


def test_rejection_sampler_returns_a_path_near_the_target():
    eps = 0.05
    path = sample_hw_bridge_rejection(
        1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.5, 30, RngSpec(21), eps
    )
    end = path.points[-1]
    assert np.hypot(end[0] - ref.B_Y[0], end[1] - ref.B_Y[1]) <= eps
    assert (path.points[:, 1] > 0).all()
    assert (path.points[0] == ref.B_X).all()


def test_rejection_sampler_budget_is_enforced():
    with pytest.raises(RejectionBudgetExceeded):
        sample_hw_bridge_rejection(
            1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.5, 30, RngSpec(22),
            1e-7, max_attempts=500,
        )


def test_acceptance_grows_with_the_ball_radius():
    counts = {}
    for eps in (0.02, 0.08):
        est = hw_crossing_probability(
            1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.5,
            VerticalBarrier(ref.B_BARRIER), 40_000, 30, RngSpec(23), eps,
            min_accepted=1,
        )
        counts[eps] = est.n_paths
    assert counts[0.08] > counts[0.02]


def test_volatility_crossing_estimate_is_deterministic_and_sane():
    est1 = hw_crossing_probability(
        1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.4,
        VerticalBarrier(ref.B_BARRIER), 60_000, 40, RngSpec(24), 0.05,
        min_accepted=10, workers=1,
    )
    est2 = hw_crossing_probability(
        1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.4,
        VerticalBarrier(ref.B_BARRIER), 60_000, 40, RngSpec(24), 0.05,
        min_accepted=10, workers=4,
    )
    assert est1.p_hat == est2.p_hat
    assert est1.n_paths == est2.n_paths
    assert 0.0 < est1.p_hat < 1.0


def test_volatility_sampler_insists_on_enough_acceptances():
    with pytest.raises(RejectionBudgetExceeded):
        hw_crossing_probability(
            1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.4,
            VerticalBarrier(ref.B_BARRIER), 2000, 40, RngSpec(25), 1e-6,
            min_accepted=50,
        )


def test_volatility_samplers_check_their_own_counts():
    # a batch size below one used to loop forever, and min_accepted = 0 with
    # no acceptances to divide by zero
    args = (1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.4,
            VerticalBarrier(ref.B_BARRIER))
    for bad in ({"n_attempts": 0}, {"n_steps": 0}, {"min_accepted": 0},
                {"batch_size": 0}):
        kw = {"n_attempts": 100, "n_steps": 40, "min_accepted": 1, **bad}
        with pytest.raises(ValueError):
            hw_crossing_probability(*args, kw.pop("n_attempts"),
                                    kw.pop("n_steps"), RngSpec(26), 0.05, **kw)
    with pytest.raises(ValueError):
        sample_hw_bridge_rejection(1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, 0.4,
                                   10, RngSpec(27), 0.05, batch_size=-1)


@pytest.mark.parametrize("t, n_steps", [(0.4, 0), (-0.3, 30), (math.nan, 30),
                                        (math.inf, 30), (0.0, 30)])
def test_volatility_samplers_refuse_a_bad_horizon_or_step_count(t, n_steps):
    # n_steps = 0 used to divide by zero, t = -0.3 to fail in math.sqrt
    with pytest.raises(ValueError, match="n_steps|horizon"):
        sample_hw_bridge_rejection(1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, t,
                                   n_steps, RngSpec(28), 0.05)
    with pytest.raises(ValueError, match="n_steps|horizon"):
        hw_crossing_probability(1.0, 0.0, 0.0, 0.0, ref.B_X, ref.B_Y, t,
                                VerticalBarrier(ref.B_BARRIER), 100, n_steps,
                                RngSpec(28), 0.05, min_accepted=1)


# ---- pinned streams ---- #

# Recorded from the samplers as they stood before their stepping loops were
# merged; every statistical test above would pass on a changed stream.
PIN_X = np.array([1.0, 0.2])
PIN_Y = np.array([1.3, 0.25])
COV2 = np.array([[1.0, 0.4], [0.4, 0.8]])
COV3 = np.array([[1.0, 0.3, -0.2], [0.3, 0.9, 0.25], [-0.2, 0.25, 1.2]])


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(np.ascontiguousarray(p.points).tobytes())
    return h.hexdigest()[:16]


def test_path_samplers_are_bit_for_bit_pinned():
    two = (sample_gaussian_bridge(X, Y, 0.3, COV2, 12, RngSpec(31, k))
           for k in range(20))
    three = (sample_gaussian_bridge([0.1, -0.2, 0.4], [0.7, 0.5, -0.3], 0.2,
                                    COV3, 9, RngSpec(32, k))
             for k in range(20))
    hw = (sample_hw_bridge_rejection(1.1, 0.3, 0.1, 0.05, PIN_X, PIN_Y, 0.3,
                                     20, RngSpec(33, k), 0.08, batch_size=512)
          for k in range(5))
    assert _digest(two) == "0cfc461a2538dcf2"
    assert _digest(three) == "c15e88bf75992dd1"
    assert _digest(hw) == "2b4a445f8f441399"


# exact_hex was re-recorded when the Gaussian estimator began to simulate the
# barrier distance alone and to draw one uniform per path.
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("per_step, exact_hex, hw_hex", [
    (False, "0x1.532617c1bda51p-4", "0x1.4e5e0a72f0539p-6"),
    (True, "0x1.39db22d0e5604p-3", "0x1.2492492492492p-4"),
])
def test_estimators_are_bit_for_bit_pinned(workers, per_step, exact_hex,
                                           hw_hex):
    est = crossing_probability(X, Y, 0.2, COV2, FLOOR, 20_000, 16, RngSpec(34),
                               workers=workers, batch_size=4096,
                               per_step_correction=per_step)
    hw = hw_crossing_probability(1.1, 0.3, 0.1, 0.05, PIN_X, PIN_Y, 0.3,
                                 VerticalBarrier(1.4), 20_000, 16, RngSpec(35),
                                 0.08, min_accepted=1, workers=workers,
                                 batch_size=4096, per_step_correction=per_step)
    assert (est.n_paths, est.p_hat.hex()) == (20_000, exact_hex)
    assert (hw.n_paths, hw.p_hat.hex()) == (294, hw_hex)


# ---- the streamed sampler against the up-front reference ---- #


def _upfront_bridge_steps(x, y, t, L, n_steps, n, gen):
    """Reference: the exact bridge with every normal of the batch drawn
    before the first state, each state a new array."""
    d = len(x)
    ds = 1.0 / n_steps
    xi = gen.standard_normal((n_steps, n, d))
    if d == 1:
        xi *= L[0, 0]
    z = np.broadcast_to(x, (n, d)).copy()
    yield z
    for i in range(n_steps - 1):
        s_i = i * ds
        step_var = t * ds * (1.0 - (i + 1) * ds) / (1.0 - s_i)
        z = (z + (ds / (1.0 - s_i)) * (y - z)
             + math.sqrt(max(step_var, 0.0)) * (xi[i] if d == 1 else xi[i] @ L.T))
        yield z
    yield np.broadcast_to(y, (n, d)).copy()


def _upfront_p_hat(x, y, t, cov, boundary, n_paths, n_steps, rng, batch_size,
                   per_step_correction):
    """Reference: crossing_probability's estimate from the up-front sampler,
    with one uniform per path drawn after all normals."""
    plane, s_x, s_y = mc._barrier_distances(boundary, x, y)
    var_rate = mc._var_rate(plane, cov)
    lam = -2.0 * n_steps / (t * var_rate)
    root_q = np.array([[math.sqrt(var_rate)]])
    hits = 0
    for k, start in enumerate(range(0, n_paths, batch_size)):
        n = min(batch_size, n_paths - start)
        gen = rng.batch_generator(k)
        states = _upfront_bridge_steps(np.array([s_x]), np.array([s_y]), t,
                                       root_q, n_steps, n, gen)
        delta_prev = next(states)[:, 0]
        if not per_step_correction:
            crossed = np.zeros(n, dtype=bool)
            for z in states:
                crossed |= delta_prev * z[:, 0] <= 0.0
                delta_prev = z[:, 0]
            hits += int(crossed.sum())
            continue
        uni = gen.random(n)
        survive = np.ones(n)
        for z in states:
            survive *= -np.expm1(np.minimum(lam * delta_prev * z[:, 0], 0.0))
            delta_prev = z[:, 0]
        hits += int((uni < 1.0 - survive).sum())
    return hits / n_paths


BIT_CASES = {
    1: (np.array([0.4]), np.array([0.3]), np.array([[1.3]])),
    2: (X, Y, COV2),
    3: (np.array([0.1, 0.2, 0.4]), np.array([0.7, 0.3, 0.3]), COV3),
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 2, 7, 16, 49])
def test_streamed_states_keep_the_bits_of_the_upfront_draw(d, n_steps):
    x, y, cov = BIT_CASES[d]
    L = mc._chol(cov)
    gen, ref_gen = (RngSpec(36, d).batch_generator(n_steps) for _ in range(2))
    ref = _upfront_bridge_steps(x, y, 0.3, L, n_steps, 5, ref_gen)
    states = 0
    for z, z_ref in zip(mc._bridge_steps(x, y, 0.3, L, n_steps, 5, gen), ref,
                        strict=True):
        assert z.tobytes() == z_ref.tobytes()
        states += 1
    assert states == n_steps + 1
    # the next draw after the last state sits where it did
    assert gen.random(4).tobytes() == ref_gen.random(4).tobytes()


@pytest.mark.parametrize("per_step", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_steps", [1, 2, 7, 16, 49])
def test_streamed_estimate_keeps_the_bits_of_the_upfront_draw(d, n_steps,
                                                              per_step):
    x, y, cov = BIT_CASES[d]
    plane = Hyperplane(np.eye(d)[-1], -0.1)
    rng = RngSpec(37, n_steps)
    # 3000 paths in batches of 1024: the last batch is short
    est = crossing_probability(x, y, 1.0, cov, plane, 3000, n_steps, rng,
                               batch_size=1024, per_step_correction=per_step)
    ref = _upfront_p_hat(x, y, 1.0, cov, plane, 3000, n_steps, rng, 1024,
                         per_step)
    # one step without the correction watches only the endpoints
    assert 0.0 < ref < 1.0 or (n_steps, per_step) == (1, False)
    assert est.p_hat.hex() == ref.hex()


def test_one_batch_holds_one_step_of_draws():
    # 16384 paths x 50 steps drawn up front peaked at 7.0 MB; streamed, a
    # batch holds a handful of (paths,) arrays
    tracemalloc.start()
    try:
        crossing_probability(X, Y, 0.2, EYE, FLOOR, 16384, 50, RngSpec(38),
                             batch_size=16384)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


# ---- serialization ---- #


def test_estimates_csv_layout():
    ests = exact_estimates([0.2, 0.1, 0.05])
    text = estimates_to_csv(ests, extrapolated=0.3, analytic_J=0.3)
    lines = text.strip().splitlines()
    assert lines[0] == ("t,n_paths,p_hat,ci_half_width,exponent,seed,"
                        "extrapolated_exponent,analytic_J")
    assert len(lines) == 4
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.2
    assert int(cells[1]) == 10**6
    assert float(cells[6]) == pytest.approx(0.3)
    dead = CrossingEstimate(0.01, 10, 0.0, 0.0, math.inf, 3)
    text = estimates_to_csv([dead])
    assert "inf" in text.splitlines()[1]
    assert text.splitlines()[1].endswith(",,")
