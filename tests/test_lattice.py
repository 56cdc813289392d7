import itertools

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from lagpc import lattice as lat
from lagpc import montecarlo
from lagpc.channel import (
    ChannelRealization,
    ChannelStats,
    DesignParams,
    PowerConfig,
    cr_rate,
    effective_interference_gain,
    sample_realizations,
)
from lagpc.design_fast import solve_alpha1_fast
from lagpc.design_slow import solve_alpha2_slow
from oracles import achievable_rate, full_csit_alpha2, sample_dither

PW = PowerConfig(10.0, 10.0)
STATS = ChannelStats.from_k_factor(10.0)


@pytest.fixture(scope="module")
def pair2():
    return lat.build_nested(2)


def _mean_realization(stats=STATS):
    mu = (stats.mu11, stats.mu12, stats.mu21, stats.mu22)
    return ChannelRealization(*(np.array([v]) for v in mu))


def _interference_frame(rng, p_p):
    s_c = (rng.normal(size=lat.T_SYMBOLS) + 1j * rng.normal(size=lat.T_SYMBOLS))
    s_c *= np.sqrt(p_p / 2.0)
    return s_c.view(float)


def _received(h22, x, hs, s):
    """h22 x + hs s on interleaved re/im frames, one complex multiply per use."""
    return (h22 * x.view(complex) + hs * s.view(complex)).view(float)


# --- the real 8x8 construction, kept as the reference for the scalar codec ---


def _channel_matrix(c):
    """Real 8x8 action of a complex gain on an interleaved frame: I_4 kron rot(c)."""
    c = complex(c)
    return np.kron(np.eye(lat.T_SYMBOLS), np.array([[c.real, -c.imag], [c.imag, c.real]]))


def _reference_filters(r, params, pw, s_power=None):
    """(F_s, F_r, Sigma_E, L, rate) from the 8x8 real covariances; L^T L = Sigma_E^-1."""
    sigma2 = (1.0 - params.alpha1) * pw.Pc
    h22 = complex(np.ravel(r.h22)[0])
    hs = complex(np.ravel(effective_interference_gain(r, params.alpha1, pw))[0])
    s_pow = pw.Pp if s_power is None else s_power
    eye = np.eye(lat.N_DIM)
    H_tilde = np.sqrt(sigma2) * _channel_matrix(h22)
    H_s = _channel_matrix(hs)
    F_s = _channel_matrix(params.alpha2) / np.sqrt(sigma2)
    cov_u_y = 0.5 * H_tilde.T + F_s @ (0.5 * s_pow * H_s.T)
    cov_y = 0.5 * H_tilde @ H_tilde.T + 0.5 * s_pow * H_s @ H_s.T + 0.5 * pw.noise_s * eye
    F_r = np.linalg.solve(cov_y, cov_u_y.T).T
    A = F_r @ H_tilde - eye
    B = F_r @ H_s - F_s
    sig_e = 0.5 * (A @ A.T) + 0.5 * s_pow * (B @ B.T) + 0.5 * pw.noise_s * (F_r @ F_r.T)
    sig_e = 0.5 * (sig_e + sig_e.T)
    chol = np.linalg.cholesky(sig_e)
    L = np.linalg.inv(chol)
    rate = -1.0 - 2.0 * np.sum(np.log(np.diag(chol))) / (lat.N_DIM * np.log(2.0))
    return F_s, F_r, sig_e, L, rate


def sphere_decode(M, y):
    """Exact argmin over integer b of |y - M b|^2, depth-first zig-zag.

    The first leaf visited is the successive-rounding (Babai) point, which
    seeds the pruning radius, so the search always terminates with the
    global minimizer.
    """
    n = M.shape[0]
    q, rmat = np.linalg.qr(M)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    rmat = signs[:, None] * rmat
    yq = (q * signs[None, :]).T @ np.asarray(y, dtype=float)
    best = None
    radius = np.inf
    b = np.zeros(n, dtype=np.int64)
    step = np.zeros(n, dtype=np.int64)
    dist = np.zeros(n + 1)
    k = n - 1
    while True:
        resid = yq[k] - rmat[k, k + 1 :] @ b[k + 1 :] if k < n - 1 else yq[k]
        if step[k] == 0:  # entering this level: start at the rounded center
            center = resid / rmat[k, k]
            b[k] = int(np.rint(center))
            step[k] = 1 if center >= b[k] else -1
        inc = (resid - rmat[k, k] * b[k]) ** 2
        if dist[k + 1] + inc < radius:
            if k == 0:
                radius = dist[1] + inc
                best = b.copy()
                b[0] += step[0]
                step[0] = -step[0] - np.sign(step[0])
            else:
                dist[k] = dist[k + 1] + inc
                k -= 1
                step[k] = 0
        else:
            # zig-zag visits siblings in cost order, so the whole level
            # is exhausted once one fails the radius
            step[k] = 0
            k += 1
            if k == n:
                return best
            b[k] += step[k]
            step[k] = -step[k] - np.sign(step[k])


# --- closest-point search -------------------------------------------------

_MASKS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(float)


def _coset_corners(x, shift):
    """All floor/ceil integer combinations of x - shift, shifted back.

    The nearest even-sum integer vector to a (non-integer) point always
    lies on such a corner: any coordinate further out can be pulled two
    steps inward without changing the sum's parity, strictly reducing
    the distance.
    """
    corners = np.floor(x - shift)[None, :] + _MASKS + shift
    keep = np.sum(corners - shift, axis=1) % 2 == 0
    return corners[keep]


def _oracle_e8(x):
    cands = np.vstack([_coset_corners(x, 0.0), _coset_corners(x, 0.5)])
    d = np.sum((cands - x[None, :]) ** 2, axis=1)
    best = np.flatnonzero(d == d.min())
    if len(best) > 1:  # exact tie: lexicographically smallest
        order = np.lexsort(cands[best].T[::-1])
        return cands[best[order[0]]]
    return cands[best[0]]


def test_e8_closest_point_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0, 4.0, size=(40, 8))
    got = lat.e8_closest_point(pts)
    ginv = np.linalg.inv(lat.e8_generator())
    for x, g in zip(pts, got):
        np.testing.assert_array_equal(g, _oracle_e8(x))
        # and the answer is a lattice point
        b = ginv @ g
        np.testing.assert_allclose(b, np.rint(b), atol=1e-9)


def test_e8_closest_point_shapes():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 5, 8))
    batched = lat.e8_closest_point(x)
    assert batched.shape == x.shape
    np.testing.assert_array_equal(batched[1, 2], lat.e8_closest_point(x[1, 2]))
    assert lat.e8_closest_point(np.zeros(8)).shape == (8,)


def test_generator_is_unimodular():
    assert np.linalg.det(lat.e8_generator()) == pytest.approx(1.0)


def test_mod_lambda_lands_in_cell():
    coarse = lat.Lattice.scaled_e8(1.7)
    rng = np.random.default_rng(2)
    x = rng.uniform(-20.0, 20.0, size=(50, 8))
    res = lat.mod_lambda(x, coarse)
    # the residue's own nearest coarse point is the origin
    np.testing.assert_array_equal(coarse.closest(res), np.zeros_like(res))
    # and it differs from x by a lattice vector
    b = np.linalg.solve(coarse.gen, (x - res).T).T
    np.testing.assert_allclose(b, np.rint(b), atol=1e-8)


def test_lattice_validates_scale():
    with pytest.raises(ValueError):
        lat.Lattice.scaled_e8(0.0)


# --- nesting and the codebook ----------------------------------------------


def _cell_moment(lattice, n, seed, chunk=250_000):
    """Monte Carlo per-dimension second moment of the lattice's Voronoi cell
    (uniform over a fundamental parallelepiped, folded into the cell), with
    its standard error."""
    rng = Generator(Philox(key=seed))
    per_point = []
    for start in range(0, n, chunk):
        pts = rng.random((min(chunk, n - start), lat.N_DIM)) @ lattice.gen.T
        res = lat.mod_lambda(pts, lattice)
        per_point.append(np.sum(res ** 2, axis=-1) / lat.N_DIM)
    per_point = np.concatenate(per_point)
    return float(np.mean(per_point)), float(np.std(per_point) / np.sqrt(n))


def test_e8_second_moment_closed_form():
    m, se = _cell_moment(lat.Lattice.scaled_e8(1.0), 10 ** 6, seed=0)
    assert abs(m - lat.E8_SECOND_MOMENT) < 4.0 * se


def test_build_nested_calibration(pair2):
    assert pair2.q_nest == 2
    assert np.log2(pair2.codebook_size) / lat.T_SYMBOLS == 2.0
    assert pair2.coarse.scale == pytest.approx(2.0 * pair2.fine.scale)
    assert pair2.codebook_size == 256
    m, _ = _cell_moment(pair2.coarse, 250_000, seed=1)
    assert m == pytest.approx(0.5, rel=0.005)
    with pytest.raises(ValueError):
        lat.build_nested(3)


def test_build_nested_q4():
    pair = lat.build_nested(4)
    assert np.log2(pair.codebook_size) / lat.T_SYMBOLS == 4.0
    assert pair.coarse.scale == pytest.approx(4.0 * pair.fine.scale)
    m, _ = _cell_moment(pair.coarse, 250_000, seed=1)
    assert m == pytest.approx(0.5, rel=0.005)


def test_message_digit_roundtrip():
    rng = np.random.default_rng(3)
    for q in (2, 4):
        for idx in rng.integers(q ** lat.N_DIM, size=30):
            idx = int(idx)
            assert lat.digits_to_message(lat.message_to_digits(idx, q), q) == idx
    with pytest.raises(ValueError):
        lat.message_to_digits(-1, 2)
    with pytest.raises(ValueError):
        lat.message_to_digits(256, 2)


def test_codebook_is_injective(pair2):
    words = np.array([lat.codeword(pair2, i) for i in range(256)])
    assert len({tuple(np.round(w, 9)) for w in words}) == 256
    # every codeword is a fine point and reduces to itself modulo coarse
    # up to a coarse vector (binary words can sit exactly on the cell wall)
    for i, w in enumerate(words):
        b = np.linalg.solve(pair2.fine.gen, w)
        np.testing.assert_allclose(b, np.rint(b), atol=1e-8)
        folded = lat.mod_lambda(w, pair2.coarse)
        k = np.linalg.solve(pair2.coarse.gen, folded - w)
        np.testing.assert_allclose(k, np.rint(k), atol=1e-8)
        assert np.sum(folded ** 2) <= np.sum(w ** 2) + 1e-9


def test_dithered_transmit_power(pair2):
    """mod-coarse output holds the calibrated power for any fixed message."""
    rng = Generator(Philox(key=9))
    alpha1, p_c = 0.3, 10.0
    params = DesignParams(alpha1, 0.8 + 0.2j)
    sq = 0.0
    n = 1200
    for _ in range(n):
        d = sample_dither(pair2, rng)
        s = _interference_frame(rng, PW.Pp)
        x = lat.encode(7, s, d, pair2, params, PowerConfig(p_c, PW.Pp))
        sq += float(np.mean(x ** 2))
    per_dim = sq / n
    assert per_dim == pytest.approx(0.5 * (1.0 - alpha1) * p_c, rel=0.05)


def test_digit_and_codeword_stacks_equal_row_calls(pair2):
    rng = np.random.default_rng(11)
    for q, pair in ((2, pair2), (4, lat.build_nested(4))):
        msgs = rng.integers(q ** lat.N_DIM, size=(3, 7))
        digits = lat.message_to_digits(msgs, q)
        assert digits.shape == (3, 7, lat.N_DIM)
        flat = msgs.ravel()
        np.testing.assert_array_equal(
            digits.reshape(-1, lat.N_DIM), [lat.message_to_digits(int(m), q) for m in flat]
        )
        np.testing.assert_array_equal(lat.digits_to_message(digits, q), msgs)
        np.testing.assert_array_equal(
            lat.codeword(pair, msgs).reshape(-1, lat.N_DIM), [lat.codeword(pair, int(m)) for m in flat]
        )
    # one bad index anywhere in the stack is an error
    with pytest.raises(ValueError):
        lat.message_to_digits(np.array([3, 256, 7]), 2)
    with pytest.raises(ValueError):
        lat.message_to_digits(np.array([[0, 5], [-1, 2]]), 4)


def test_codec_stacks_equal_row_calls(pair2):
    """Filters, dither, encoder and decoder on a stack of frames give row i
    of the stack exactly as the one-frame calls do."""
    n, a1 = 60, 0.2
    pw = PowerConfig(10.0 ** 1.6, 100.0)
    r = sample_realizations(STATS, n, 12)
    params = DesignParams(a1, 0.9 - 0.1j)
    filters = lat.build_filters(r, params, pw)
    rows = [lat.build_filters(r[i : i + 1], params, pw) for i in range(n)]
    np.testing.assert_array_equal(filters.z, [f.z for f in rows])
    np.testing.assert_array_equal(filters.error_var, [f.error_var for f in rows])
    assert all(f.regularized is False for f in rows)

    d = sample_dither(pair2, Generator(Philox(key=5)), (n,))
    one = Generator(Philox(key=5))
    np.testing.assert_array_equal(d, [sample_dither(pair2, one) for _ in range(n)])

    rng = Generator(Philox(key=6))
    msgs = rng.integers(pair2.codebook_size, size=n)
    s = np.array([_interference_frame(rng, pw.Pp) for _ in range(n)])
    x = lat.encode(msgs, s, d, pair2, params, pw)
    np.testing.assert_array_equal(x, [lat.encode(int(msgs[i]), s[i], d[i], pair2, params, pw) for i in range(n)])
    hs = effective_interference_gain(r, a1, pw)
    y = _received(r.h22[:, None], x, hs[:, None], s) + rng.normal(size=x.shape) * np.sqrt(0.5)
    got = lat.decode(y, filters, d, pair2)
    np.testing.assert_array_equal(got, [lat.decode(y[i], rows[i], d[i], pair2) for i in range(n)])
    assert 0 < np.count_nonzero(got != msgs) < n  # right and wrong decisions both compared


# --- filters and the rate identity -----------------------------------------


def test_achievable_rate_matches_closed_form():
    rng = np.random.default_rng(4)
    r_all = sample_realizations(STATS, 10, 5)
    for i in range(10):
        r = r_all[i : i + 1]
        a1 = float(rng.uniform(0.0, 0.9))
        a2 = complex(rng.normal(1.0, 0.3) + 1j * rng.normal(0.0, 0.3))
        params = DesignParams(a1, a2)
        filters = lat.build_filters(r, params, PW)
        want = float(np.ravel(cr_rate(r, params, PW))[0])
        assert achievable_rate(filters) == pytest.approx(want, abs=1e-9)


def test_filters_with_matched_alpha2_reach_clean_rate():
    r = sample_realizations(STATS, 3, 8)
    for i in range(3):
        ri = r[i : i + 1]
        a1 = 0.4
        a2 = complex(np.ravel(full_csit_alpha2(ri, a1, PW))[0])
        filters = lat.build_filters(ri, DesignParams(a1, a2), PW)
        sigma2 = (1.0 - a1) * PW.Pc
        clean = float(np.log2(1.0 + np.abs(np.ravel(ri.h22)[0]) ** 2 * sigma2 / PW.noise_s))
        assert achievable_rate(filters) == pytest.approx(clean, abs=1e-9)
        # absent interference the precoder choice is immaterial
        off = lat.build_filters(ri, DesignParams(a1, 0.123j), PW, s_power=0.0)
        assert achievable_rate(off) == pytest.approx(clean, abs=1e-9)


def test_filters_match_8x8_reference():
    """The scalar filters are the 8x8 real construction: F_s and F_r act as
    one complex gain per use, the error covariance is error_var times I, and
    both rate formulas agree."""
    rng = np.random.default_rng(23)
    eye = np.eye(lat.N_DIM)

    def close(got, want, scale):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    checked = 0
    for i in range(120):
        stats = ChannelStats.from_k_factor(float(rng.uniform(0.0, 20.0)))
        r = sample_realizations(stats, 1, 100 + i)
        params = DesignParams(
            float(rng.uniform(0.0, 0.95)),
            complex(rng.normal(1.0, 0.5) + 1j * rng.normal(0.0, 0.5)),
        )
        p_c, p_p = 10.0 ** (rng.uniform([0.0, 0.0], [30.0, 20.0]) / 10.0)
        pw = PowerConfig(p_c, p_p)
        for s_power in (pw.Pp, 0.0):
            f = lat.build_filters(r, params, pw, s_power=s_power)
            F_s, F_r, sig_e, _, rate = _reference_filters(r, params, pw, s_power)
            assert f.regularized is False
            close(_channel_matrix(lat._precoder(params, pw)), F_s, np.abs(F_s).max())
            close(_channel_matrix(f.z), F_r, np.abs(F_r).max())
            close(f.error_var * eye, sig_e, f.error_var)
            assert achievable_rate(f) == pytest.approx(rate, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked >= 200


def test_build_filters_rejects_full_relaying():
    with pytest.raises(ValueError):
        lat.build_filters(_mean_realization(), DesignParams(1.0, 0.0), PW)


def test_achievable_rate_rejects_indefinite_covariance():
    for var in (-1.0, 0.0):
        with pytest.raises(ValueError):
            achievable_rate(lat.FilterSet(z=1.0, error_var=var))


# --- decoding ---------------------------------------------------------------


def _sphere_oracle(M, y, width=3):
    base = np.rint(np.linalg.solve(M, y)).astype(int)
    best, best_d = None, np.inf
    for off in itertools.product(range(-width, width + 1), repeat=M.shape[0]):
        b = base + np.array(off)
        d = float(np.sum((y - M @ b) ** 2))
        if d < best_d:
            best_d, best = d, b
    return best, best_d


def test_sphere_decode_is_exact():
    rng = np.random.default_rng(6)
    for _ in range(60):
        u, _, vt = np.linalg.svd(rng.normal(size=(4, 4)))
        M = u @ np.diag(rng.uniform(1.0, 3.0, size=4)) @ vt
        b0 = rng.integers(-4, 5, size=4)
        y = M @ b0 + rng.normal(scale=0.4, size=4)
        want, want_d = _sphere_oracle(M, y)
        got = sphere_decode(M, y)
        got_d = float(np.sum((y - M @ got) ** 2))
        assert got_d == pytest.approx(want_d, abs=1e-9)
        np.testing.assert_array_equal(got, want)


def test_noiseless_roundtrip(pair2):
    r = _mean_realization()
    a2 = complex(np.ravel(full_csit_alpha2(r, 0.0, PW))[0])
    params = DesignParams(0.0, a2)
    filters = lat.build_filters(r, params, PW)
    h22 = complex(np.ravel(r.h22)[0])
    hs = complex(np.ravel(r.h21)[0])  # alpha1 = 0: no relayed share
    rng = Generator(Philox(key=42))
    for msg in rng.integers(pair2.codebook_size, size=64):
        msg = int(msg)
        d = sample_dither(pair2, rng)
        s = _interference_frame(rng, PW.Pp)
        x = lat.encode(msg, s, d, pair2, params, PW)
        y = _received(h22, x, hs, s)
        assert lat.decode(y, filters, d, pair2) == msg


def test_decode_matches_sphere_decode(pair2):
    """Nearest-point decoding takes the same decision as an exact sphere
    search on the whitened 8x8 system, on noisy frames of both schemes."""
    stats = ChannelStats.from_k_factor(10.0)
    rng = Generator(Philox(key=31))
    frames = errors = 0
    for scheme in ("la_gpc", "interference_as_noise"):
        for j, snr in enumerate((22.0, 24.0, 26.0)):
            pw = PowerConfig(10.0 ** (snr / 10.0), 100.0)
            a2 = solve_alpha2_slow(stats, 0.0, pw, 2.0)[0] if scheme == "la_gpc" else 0j
            params = DesignParams(0.0, a2)
            r_all = sample_realizations(stats, 340, 40 + j)
            for i in range(340):
                r = r_all[i : i + 1]
                f = lat.build_filters(r, params, pw)
                _, F_r, _, L, _ = _reference_filters(r, params, pw)
                msg = int(rng.integers(pair2.codebook_size))
                d = sample_dither(pair2, rng)
                s = _interference_frame(rng, pw.Pp)
                x = lat.encode(msg, s, d, pair2, params, pw)
                y = _received(r.h22[0], x, r.h21[0], s) + rng.normal(size=lat.N_DIM) * np.sqrt(0.5)
                got = lat.decode(y, f, d, pair2)
                b = sphere_decode(L @ pair2.fine.gen, L @ (F_r @ y + d))
                assert got == lat.digits_to_message(b, pair2.q_nest)
                frames += 1
                errors += got != msg
    assert frames >= 2000
    assert errors >= 100  # the decisions are compared where they are wrong too


# --- whole-link simulation ---------------------------------------------------


def _reference_transmit_samples(pair, params, pw, n_frames, seed):
    """The sampler one frame at a time, as it ran before the batched one."""
    rng = Generator(Philox(key=seed))
    relay = np.sqrt(params.alpha1 * pw.Pc / pw.Pp)
    out = np.empty((n_frames, lat.N_DIM))
    for i in range(n_frames):
        msg = int(rng.integers(pair.codebook_size))
        dither = sample_dither(pair, rng)
        s_c = (rng.normal(size=lat.T_SYMBOLS) + 1j * rng.normal(size=lat.T_SYMBOLS)) * np.sqrt(
            pw.Pp / 2.0
        )
        s_frame = s_c.view(float)
        x = lat.encode(msg, s_frame, dither, pair, params, pw)
        out[i] = x + relay * s_frame
    return out.ravel()


def test_transmit_samples_match_per_frame_reference(pair2):
    res = solve_alpha1_fast(STATS, PW)
    for seed in (1, 6):
        got = lat.transmit_samples(pair2, res.params, PW, n_frames=2000, seed=seed)
        want = _reference_transmit_samples(pair2, res.params, PW, 2000, seed)
        np.testing.assert_array_equal(got, want)


def test_transmit_samples_gaussianization(pair2):
    """Relaying washes out the sub-Gaussian cell shape of the bare codeword."""
    bare = lat.transmit_samples(pair2, DesignParams(0.0, 0j), PW, n_frames=8000, seed=1)
    kurt = float(np.mean(bare ** 4) / np.mean(bare ** 2) ** 2 - 3.0)
    assert -0.56 < kurt < -0.38  # close to the uniform-cell value

    res = solve_alpha1_fast(STATS, PW)
    des = lat.transmit_samples(pair2, res.params, PW, n_frames=12000, seed=2)
    kurt_d = float(np.mean(des ** 4) / np.mean(des ** 2) ** 2 - 3.0)
    skew_d = float(np.mean(des ** 3) / np.mean(des ** 2) ** 1.5)
    assert abs(kurt_d) < 0.08
    assert abs(skew_d) < 0.05


def _reference_codeword_error_sim(sc):
    """The codec simulation one trial at a time on single frames, with the
    theory outage from the pooled estimator, as it ran before the batched one."""
    [scheme] = sc.schemes
    q = int(round(2.0 ** (sc.rate_bpcu / 2.0)))
    stats = ChannelStats.from_k_factor(sc.k_db)
    pair = lat.build_nested(q)
    interference_on = scheme != "no_interference"
    filter_s_power = sc.p_p if interference_on else 0.0
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    sd = np.sqrt([stats.var11, stats.var12, stats.var21, stats.var22])
    rows = []
    for i, snr in enumerate(sc.snr_db):
        p_c = 10.0 ** (snr / 10.0)
        pw = PowerConfig(p_c, sc.p_p, noise_p=1.0, noise_s=sc.noise)
        a2 = solve_alpha2_slow(stats, sc.alpha1, pw, sc.rate_bpcu)[0] if scheme == "la_gpc" else 0j
        params = DesignParams(sc.alpha1, a2)
        rng = Generator(Philox(SeedSequence(entropy=sc.seed, spawn_key=(i,))))
        errors = 0
        for _ in range(sc.trials):
            g = (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(2.0)
            r = ChannelRealization(*(mu + sd * g))
            hs = complex(effective_interference_gain(r, sc.alpha1, pw))
            filters = lat.build_filters(r, params, pw, s_power=filter_s_power)
            msg = int(rng.integers(pair.codebook_size))
            dither = sample_dither(pair, rng)
            if interference_on:
                s_frame = _interference_frame(rng, sc.p_p)
            else:
                s_frame = np.zeros(lat.N_DIM)
            x = lat.encode(msg, s_frame, dither, pair, params, pw)
            z = rng.normal(size=lat.N_DIM) * np.sqrt(sc.noise / 2.0)
            y = _received(complex(r.h22), x, hs, s_frame) + z
            errors += lat.decode(y, filters, dither, pair) != msg
        p_err = errors / sc.trials
        ci = 1.96 * np.sqrt(max(p_err * (1.0 - p_err), 1e-12) / sc.trials)
        which = "full_csit" if scheme == "no_interference" else "la_gpc"
        theory = montecarlo.drawn_estimates(
            [(stats, params)], pw, (which,), sc.rate_bpcu, n=sc.theory_n, seed=sc.seed
        )[0][0].value
        rows.append(
            lat.ErrorRatePoint(
                float(snr), scheme, float(p_err), float(ci), float(theory),
                sc.alpha1, a2,
            )
        )
    return rows


@pytest.mark.parametrize("scheme", ["la_gpc", "interference_as_noise", "no_interference"])
def test_codeword_error_sim_matches_per_trial_reference(scheme):
    """The batched simulation draws the same stream and takes the same
    decisions as the per-trial loop: rate 2 and 4, K = 0 and 10 dB, two seeds."""
    mixed = 0
    for rate, snr_db in ((2.0, (10.0, 16.0)), (4.0, (20.0, 26.0))):
        for k_db in (0.0, 10.0):
            for seed in (3, 8):
                sc = lat.LatticeScenario(
                    k_db=k_db, rate_bpcu=rate, snr_db=snr_db, trials=60, seed=seed,
                    schemes=(scheme,), theory_n=4000,
                )
                got = lat.codeword_error_sim(sc)
                assert got == _reference_codeword_error_sim(sc)
                mixed += sum(0.0 < p.error_rate < 1.0 for p in got)
    assert mixed >= 6  # points with right and wrong decisions both


def test_codec_schemes_share_their_trial_draws(monkeypatch):
    """The schemes of one draw shape share each SNR's trial draw, and a many-scheme run equals, point
    for point, the one-scheme runs (which test_codeword_error_sim_matches_per_trial_reference holds
    to the per-trial loop): two draws per SNR for all three schemes, one for the two on the air."""
    draws = []
    trial_draws = lat._trial_draws

    def counting(scenario, stats, i, pair, interference_on):
        draws.append((i, interference_on))
        return trial_draws(scenario, stats, i, pair, interference_on)

    monkeypatch.setattr(lat, "_trial_draws", counting)
    kw = dict(k_db=5.0, rate_bpcu=2.0, snr_db=(12.0, 18.0), trials=80, seed=4, theory_n=3000)
    together = lat.codeword_error_sim(lat.LatticeScenario(schemes=lat.SCHEMES, **kw))
    assert sorted(draws) == [(0, False), (0, True), (1, False), (1, True)]
    apart = [p for s in lat.SCHEMES for p in lat.codeword_error_sim(lat.LatticeScenario(schemes=(s,), **kw))]
    assert together == apart
    assert 0.0 < sum(p.error_rate for p in together) < len(together)
    draws.clear()
    lat.codeword_error_sim(lat.LatticeScenario(schemes=("la_gpc", "interference_as_noise"), **kw))
    assert draws == [(0, True), (1, True)]


def test_codeword_error_sim_determinism():
    sc = lat.LatticeScenario(
        k_db=10.0, rate_bpcu=2.0, snr_db=(24.0,), trials=150, seed=3, theory_n=20000
    )
    a = lat.codeword_error_sim(sc)
    b = lat.codeword_error_sim(sc)
    assert a == b
    assert a[0].snr_db == 24.0


def test_codeword_error_sim_physics():
    kw = dict(k_db=10.0, rate_bpcu=2.0, seed=3, theory_n=40000)
    main = lat.codeword_error_sim(
        lat.LatticeScenario(snr_db=(12.0, 20.0, 28.0), trials=400, **kw)
    )
    # a 4-use exact-ML code beats the infinite-blocklength outage while
    # errors are dominated by deep fades, then pays the short-code penalty
    assert main[0].error_rate < main[0].theory_outage
    assert main[2].error_rate > main[2].theory_outage
    assert main[0].error_rate > main[1].error_rate > main[2].error_rate

    clean = lat.codeword_error_sim(
        lat.LatticeScenario(snr_db=(12.0,), trials=400, schemes=("no_interference",), **kw)
    )[0]
    assert clean.error_rate < main[0].error_rate
    assert clean.theory_outage < main[0].theory_outage

    blind = lat.codeword_error_sim(
        lat.LatticeScenario(snr_db=(6.0,), trials=300, schemes=("interference_as_noise",), **kw)
    )[0]
    assert blind.error_rate >= 0.95
    assert blind.alpha2 == 0j


def test_validated_codec_records_keep_their_messages_and_defaults():
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        lat.Lattice(lat.e8_generator(), 0.0)
    with pytest.raises(ValueError, match="unknown scheme in"):
        lat.LatticeScenario(k_db=10.0, rate_bpcu=2.0, snr_db=(20.0,), schemes=("bogus",))
    sc = lat.LatticeScenario(10.0, 2.0, (20.0,))
    assert (sc.trials, sc.seed, sc.p_p, sc.noise, sc.alpha1, sc.schemes, sc.theory_n) == \
        (2000, 0, 100.0, 1.0, 0.0, ("la_gpc",), 10 ** 5)


def test_codeword_error_sim_validation():
    with pytest.raises(ValueError):
        lat.codeword_error_sim(
            lat.LatticeScenario(k_db=10.0, rate_bpcu=3.0, snr_db=(20.0,))
        )
    with pytest.raises(ValueError):
        lat.codeword_error_sim(
            lat.LatticeScenario(
                k_db=10.0, rate_bpcu=2.0, snr_db=(20.0,), trials=5, schemes=("bogus",)
            )
        )
