import math

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

from lagpc import channel, design_fast
from lagpc.channel import (
    ChannelRealization,
    ChannelStats,
    DesignParams,
    PowerConfig,
)
from oracles import full_csit_alpha2

PW = PowerConfig(10.0, 10.0)


def test_stats_unit_power_enforced():
    with pytest.raises(ValueError):
        ChannelStats(0.9, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChannelStats(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -0.1)


def test_from_k_factor_moments():
    stats = ChannelStats.from_k_factor(10.0)
    k = 10.0
    assert abs(stats.mu22) ** 2 == pytest.approx(k / (k + 1.0))
    assert stats.var22 == pytest.approx(1.0 / (k + 1.0))
    assert stats.k_factor("22") == pytest.approx(k)
    # Rayleigh end: no line of sight
    ray = ChannelStats.from_k_factor(-300.0)
    assert abs(ray.mu11) ** 2 < 1e-20
    assert ray.var11 == pytest.approx(1.0)


def test_k_factor_degenerate_link():
    det = ChannelStats(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert det.k_factor("21") == np.inf


def test_power_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        PowerConfig(0.0, 10.0)
    with pytest.raises(ValueError):
        PowerConfig(10.0, 10.0, noise_s=-1.0)


def test_design_params_range():
    with pytest.raises(ValueError):
        DesignParams(1.2, 0.0)
    DesignParams(1.0, 0.0)  # boundary is legal


def test_validated_records_keep_their_messages():
    with pytest.raises(ValueError, match="negative variance on link 22"):
        ChannelStats(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -0.1)
    with pytest.raises(ValueError, match=r"link 11: \|mu\|\^2 \+ var = 1\.31000000, expected 1"):
        ChannelStats(0.9, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="powers and noise variances must be positive"):
        PowerConfig(10.0, 10.0, noise_s=-1.0)
    with pytest.raises(ValueError, match=r"alpha1 = 1\.2 outside \[0, 1\]"):
        DesignParams(alpha2=0.0, alpha1=1.2)


def test_stats_and_power_configs_are_equal_and_hash_by_value():
    """They key design_fast's lru_caches, so equal values built apart share one cached spec."""
    a, b = ChannelStats.from_k_factor(10.0), ChannelStats.from_k_factor(10.0)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ChannelStats.from_k_factor(5.0)
    assert design_fast.primary_links(a) is design_fast.primary_links(b)
    pw = PowerConfig(10.0, 100.0)
    assert pw == PowerConfig(Pc=10.0, Pp=100.0, noise_p=1.0, noise_s=1.0)
    assert hash(pw) == hash(PowerConfig(10.0, 100.0, 1.0, 1.0))
    assert pw != PowerConfig(10.0, 100.0, noise_s=2.0)
    assert {pw: 1}[PowerConfig(10.0, 100.0)] == 1


def test_sample_realizations_moments():
    stats = ChannelStats.from_k_factor(5.0)
    r = channel.sample_realizations(stats, 200000, seed=1)
    assert np.mean(r.h22) == pytest.approx(stats.mu22, abs=3e-3)
    assert np.var(r.h22) == pytest.approx(stats.var22, rel=0.02)
    # unit mean-square gain per link
    for h in (r.h11, r.h12, r.h21, r.h22):
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=6e-3)


def test_sample_realizations_partition_independent():
    """Chunked draws tile exactly into the unchunked stream."""
    stats = ChannelStats.from_k_factor(3.0)
    whole = channel.sample_realizations(stats, 500, seed=9)
    first = channel.sample_realizations(stats, 180, seed=9)
    rest = channel.realizations(stats, channel.standard_normals(320, seed=9, start=180))
    np.testing.assert_array_equal(whole.h11[:180], first.h11)
    np.testing.assert_array_equal(whole.h22[180:], rest.h22)


def _oracle_sample(stats, n, seed, start, quantile=ndtri):
    """The sampler before it ran ndtri and the complex view in place: one piece."""
    bitgen = Philox(key=seed)
    bitgen.advance(2 * start)
    z = quantile(np.maximum(Generator(bitgen).random((n, 8)), 2.0 ** -53))
    sd = np.sqrt(np.array([stats.var11, stats.var12, stats.var21, stats.var22]) / 2.0)
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    h = sd * (z[:, 0::2] + 1j * z[:, 1::2])
    h += mu
    return h


def test_sample_realizations_match_the_copying_sampler():
    """The in-place draws equal the copying expression to the bit, from a nonzero start."""
    stats = ChannelStats.from_k_factor(3.0)
    r = channel.realizations(stats, channel.standard_normals(300, seed=11, start=37))
    got = np.stack([r.h11, r.h12, r.h21, r.h22], axis=1)
    assert np.array_equal(got.view(np.uint64), _oracle_sample(stats, 300, 11, 37).view(np.uint64))


@pytest.mark.parametrize("k_db", [0.0, 15.0])
def test_realizations_of_standard_normals_are_the_sampled_stream(k_db):
    """Rescaling one draw of more than 2^18 normals gives the copying sampler's bits.

    Over 2 * 10^6 draws numpy's AVX-512 log misses libm's by an ulp on some of them, where the port's
    quantile then differs from scipy's (test_ndtri_matches_scipy_to_the_bit_where_log_does), so here
    the copying sampler takes the port's quantiles: this checks the stream's position and the rescale.
    """
    stats = ChannelStats.from_k_factor(k_db)
    n = (1 << 18) + 3
    held = channel.realizations(stats, channel.standard_normals(n, seed=13, start=7))
    got = np.stack([held.h11, held.h12, held.h21, held.h22], axis=1)
    want = _oracle_sample(stats, n, 13, 7, quantile=lambda y: channel._ndtri(y.copy()))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("k_db", [0.0, 10.0, 40.0])
def test_realizations_are_contiguous_rows_of_the_strided_build(k_db):
    """Each link is a C-contiguous row, also of a slice, with the bits of the strided (n, 4) build
    (sd * z.view(complex) + mu).T, over more than two pieces with a short last one."""
    stats = ChannelStats.from_k_factor(k_db)
    z = channel.standard_normals(2 * channel.PIECE + 9, seed=21, start=5)
    sd = np.sqrt(np.array([stats.var11, stats.var12, stats.var21, stats.var22]) / 2.0)
    want = (sd * z.view(complex) + np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])).T
    r = channel.realizations(stats, z)
    links = (r.h11, r.h12, r.h21, r.h22)
    assert all(got.tobytes() == row.tobytes() for got, row in zip(links, want, strict=True))
    for part in (r, r[7 : channel.PIECE + 40], channel.sample_realizations(stats, 50, seed=2)):
        assert all(h.flags.c_contiguous for h in (part.h11, part.h12, part.h21, part.h22))


def _bits(h):
    return np.asarray(h).view(np.uint64)


@pytest.mark.parametrize("links", [(0, 1), (2, 3), (0, 1, 2, 3)])
def test_link_subsets_are_the_full_draw_to_the_bit(links):
    """A draw of some links holds, bit for bit, those links of the all-links draw, at one realization,
    around one piece and over several pieces with a short last one, whole and tiled by start; the links
    not drawn are None, and len() and slicing read the drawn ones."""
    stats = ChannelStats.from_k_factor(7.0)
    names = ("h11", "h12", "h21", "h22")
    whole_n = 3 * channel.PIECE + 5
    whole = channel.sample_realizations(stats, whole_n, seed=17)
    for n in (1, channel.PIECE - 1, channel.PIECE + 3, whole_n):
        drawn = channel.sample_realizations(stats, n, 17, links=links)
        start = whole_n - n  # the last n of the whole draw, from their own start
        tiled = channel.realizations(stats, channel.standard_normals(n, 17, start, links), links)
        for k, name in enumerate(names):
            if k in links:
                assert np.array_equal(_bits(getattr(drawn, name)), _bits(getattr(whole, name)[:n]))
                assert np.array_equal(_bits(getattr(tiled, name)), _bits(getattr(whole, name)[start:]))
            else:
                assert getattr(drawn, name) is None and getattr(tiled, name) is None
        assert len(drawn) == len(tiled) == n
        cut = slice(n // 3, n // 3 + 2)
        sub = drawn[cut]
        assert len(sub) == min(2, n - n // 3)
        for name in (names[k] for k in links):
            assert np.array_equal(_bits(getattr(sub, name)), _bits(getattr(whole, name)[:n][cut]))
    # two calls tile one range: the second starts where the first ends, inside a piece
    cut = channel.PIECE + 11
    z = np.concatenate([channel.standard_normals(cut, 17, 0, links),
                        channel.standard_normals(whole_n - cut, 17, cut, links)])
    assert np.array_equal(z, channel.standard_normals(whole_n, 17, 0, links))
    assert np.array_equal(z, channel.standard_normals(whole_n, 17)[:, channel._columns(links)])


def test_sample_realizations_deterministic_and_seed_sensitive():
    stats = ChannelStats.from_k_factor(0.0)
    a = channel.sample_realizations(stats, 64, seed=4)
    b = channel.sample_realizations(stats, 64, seed=4)
    c = channel.sample_realizations(stats, 64, seed=5)
    np.testing.assert_array_equal(a.h12, b.h12)
    assert not np.array_equal(a.h12, c.h12)


def _single(stats, seed):
    r = channel.sample_realizations(stats, 1, seed)
    return r


def _cr_rate_matrix_form(r, p, pw):
    """Oracle: the rate from the quadratic forms in (h21, h22).  S = P + Q is
    the received-power form; D = v v^H with v = (a2 Pp, sigma2 + a2 sqrt(a1 Pc Pp))
    completes the (U, Ys) determinant, and c0 = var(U)."""
    P, Q = channel.build_matrices(p.alpha1, pw)
    sigma2 = (1.0 - p.alpha1) * pw.Pc
    v = np.array([p.alpha2 * pw.Pp, sigma2 + p.alpha2 * np.sqrt(p.alpha1 * pw.Pc * pw.Pp)])
    D = np.outer(v, v.conj())
    c0 = sigma2 + abs(p.alpha2) ** 2 * pw.Pp
    h = np.stack([np.atleast_1d(r.h21), np.atleast_1d(r.h22)])
    eps_s = np.real(np.einsum("ik,ij,jk->k", h.conj(), P + Q, h))
    eps_d = np.real(np.einsum("ik,ij,jk->k", h.conj(), D, h))
    val = np.log2(
        sigma2 * (eps_s + pw.noise_s) / (c0 * (eps_s + pw.noise_s) - eps_d)
    )
    return val if np.ndim(r.h21) else float(val[0])


def test_cr_rate_matches_matrix_form():
    stats = ChannelStats.from_k_factor(7.0)
    r = channel.sample_realizations(stats, 256, seed=2)
    for a1, a2 in ((0.0, 0.3 + 0.1j), (0.4, 1.2 - 0.5j), (0.9, 0.0)):
        p = DesignParams(a1, a2)
        direct = channel.cr_rate(r, p, PW)
        via_forms = _cr_rate_matrix_form(r, p, PW)
        np.testing.assert_allclose(direct, via_forms, atol=1e-10)


def test_cr_rate_all_power_relayed():
    stats = ChannelStats.from_k_factor(5.0)
    r = channel.sample_realizations(stats, 4, seed=3)
    assert np.all(channel.cr_rate(r, DesignParams(1.0, 0.0), PW) == 0.0)
    with pytest.raises(ValueError):
        channel.cr_rate(r, DesignParams(1.0, 0.5), PW)


def test_cr_rate_zero_alpha2_is_noise_rate():
    stats = ChannelStats.from_k_factor(8.0)
    r = channel.sample_realizations(stats, 64, seed=6)
    rates = channel.cr_rate(r, DesignParams(0.3, 0.0), PW)
    hs = channel.effective_interference_gain(r, 0.3, PW)
    g22 = np.abs(r.h22) ** 2 * (1.0 - 0.3) * PW.Pc
    noise = np.log2(1.0 + g22 / (np.abs(hs) ** 2 * PW.Pp + PW.noise_s))
    np.testing.assert_allclose(rates, noise, atol=1e-12)


def test_full_csit_alpha2_recovers_clean_rate():
    """Per-realization MMSE coefficient cancels the interference term."""
    stats = ChannelStats.from_k_factor(4.0)
    r = channel.sample_realizations(stats, 128, seed=7)
    for a1 in (0.0, 0.55):
        a2 = full_csit_alpha2(r, a1, PW)
        got = np.array(
            [
                channel.cr_rate(r[i], DesignParams(a1, complex(a2[i])), PW)
                for i in range(len(r))
            ]
        ).ravel()
        clean = np.log2(1.0 + np.abs(r.h22) ** 2 * (1.0 - a1) * PW.Pc / PW.noise_s)
        np.testing.assert_allclose(got, clean, atol=1e-9)


def test_full_csit_alpha2_is_per_realization_optimum():
    # brute local check: perturbing the coefficient never helps
    stats = ChannelStats.from_k_factor(2.0)
    r = channel.sample_realizations(stats, 12, seed=8)
    a2 = full_csit_alpha2(r, 0.2, PW)
    rng = np.random.default_rng(0)
    for i in range(len(r)):
        best = channel.cr_rate(r[i], DesignParams(0.2, complex(a2[i])), PW)
        for _ in range(25):
            trial = complex(a2[i]) + complex(*rng.normal(scale=0.05, size=2))
            assert channel.cr_rate(r[i], DesignParams(0.2, trial), PW) <= best + 1e-12


def test_naive_alpha2_degenerate_channel():
    """With no fading spread on the direct link (and no relaying), the
    mean-channel coefficient coincides with the per-realization one."""
    det = ChannelStats(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    naive = channel.naive_alpha2(det, 0.0, PW)
    r = ChannelRealization(
        np.array([0.3 + 0j]), np.array([0.1 + 0j]), np.array([1.0 + 0j]), np.array([1.0 + 0j])
    )
    full = full_csit_alpha2(r, 0.0, PW)
    assert complex(full[0]) == pytest.approx(naive)


def test_primary_rate_value():
    r = ChannelRealization(
        np.array([1.0 + 0j]), np.array([0.5 + 0j]), np.array([0.2 + 0j]), np.array([0.8 + 0j])
    )
    a1 = 0.36
    sig = abs(1.0 * np.sqrt(PW.Pp) + 0.5 * np.sqrt(a1 * PW.Pc)) ** 2
    expect = np.log2(1.0 + sig / (0.25 * (1.0 - a1) * PW.Pc + 1.0))
    assert channel.primary_rate(r, a1, PW)[0] == pytest.approx(expect)
    with pytest.raises(ValueError):
        channel.primary_rate(r, 1.0001, PW)


def test_effective_interference_gain():
    r = ChannelRealization(
        np.array([0j]), np.array([0j]), np.array([0.5 + 0.5j]), np.array([1.0 - 1.0j])
    )
    hs = channel.effective_interference_gain(r, 0.4, PowerConfig(10.0, 40.0))
    # relay amplitude sqrt(0.4*10/40) = sqrt(0.1)
    assert hs[0] == pytest.approx(0.5 + 0.5j + np.sqrt(0.1) * (1.0 - 1.0j))


def test_outage_event_matches_quadratic_form():
    """R < target exactly when the E-form of the gains dips below the
    matching threshold; this identity is what the slow design relies on.
    It holds at one design point and at every point of an alpha1 x alpha2 grid."""
    stats = ChannelStats.from_k_factor(6.0)
    r = channel.sample_realizations(stats, 4096, seed=11)
    h = np.stack([r.h21, r.h22])
    target = 1.4
    p = DesignParams(0.35, 0.8 + 0.2j)
    E, thresh = channel.cr_outage_form(p.alpha1, p.alpha2, PW, target)
    quad = np.real(np.einsum("in,ij,jn->n", h.conj(), E, h))
    np.testing.assert_array_equal(channel.cr_rate(r, p, PW) < target, quad < thresh)

    a1 = np.array([[0.0], [0.35], [0.8]])
    a2 = np.array([[0.0, 0.5, 0.8 + 0.2j, 1.2 - 0.4j, 2.0j]])
    E, thresh = channel.cr_outage_form(a1, a2, PW, target)
    assert E.shape == (3, 5, 2, 2) and thresh.shape == (3, 5)
    for i, j in np.ndindex(thresh.shape):
        rates = channel.cr_rate(r, DesignParams(a1[i, 0], a2[0, j]), PW)
        quad = np.real(np.einsum("in,ij,jn->n", h.conj(), E[i, j], h))
        np.testing.assert_array_equal(rates < target, quad < thresh[i, j])


def test_build_matrices_shapes_and_rank():
    P, Q = channel.build_matrices(0.5, PW)
    E, thresh = channel.cr_outage_form(0.5, 0.7 + 0.1j, PW, 1.0)
    for mat in (P, Q, E):
        assert mat.shape == (2, 2)
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-12)
    assert np.linalg.matrix_rank(P) == 1
    assert np.linalg.matrix_rank(Q) == 1
    assert np.ndim(thresh) == 0
    grid = np.linspace(0.0, 1.0, 4)
    P4, Q4 = channel.build_matrices(grid, PW)
    assert P4.shape == Q4.shape == (4, 2, 2)
    np.testing.assert_array_equal(P4[1], channel.build_matrices(grid[1], PW)[0])
    with pytest.raises(ValueError):
        channel.build_matrices(np.array([0.5, 1.01]), PW)


def test_realization_indexing():
    stats = ChannelStats.from_k_factor(1.0)
    r = channel.sample_realizations(stats, 10, seed=0)
    assert len(r) == 10
    sub = r[3:7]
    assert len(sub) == 4
    np.testing.assert_array_equal(sub.h21, r.h21[3:7])


def test_built_realization_len_and_slicing():
    h = np.arange(12.0).reshape(4, 3) + 1j
    r = ChannelRealization(*h)
    assert len(r) == 3 and len(r[1:]) == 2 and len(ChannelRealization(1j, 2j, 3j, 4j)) == 1
    sub = r[::2]
    for got, want in zip((sub.h11, sub.h12, sub.h21, sub.h22), h[:, ::2]):
        np.testing.assert_array_equal(got, want)


def test_ndtri_matches_scipy_to_the_bit_where_log_does():
    """channel._ndtri against scipy's ndtri on 10^6 Philox uniforms and the edges 2^-53, 1 - 2^-53,
    1/2 and the branch points e^-2, 1 - e^-2 and e^-32 (where x = 8) with their neighbours.

    The port repeats Cephes' operations, so a draw whose logs np.log rounds as the C library does
    (every draw on numpy's baseline dispatch) gets scipy's bits.  numpy's AVX-512 log misses by an
    ulp on a few draws in 10^4, which the tail formula carries to at most 4 ulps.
    """
    e2 = channel._EXP_M2
    edges = [2.0 ** -53, 1.0 - 2.0 ** -53, 0.5, e2, 1.0 - e2, np.exp(-32.0)]
    edges += [np.nextafter(v, d) for v in (e2, 1.0 - e2, np.exp(-32.0)) for d in (0.0, 1.0)]
    y = np.concatenate([np.maximum(Generator(Philox(key=2024)).random(10 ** 6), 2.0 ** -53), edges])
    ulps = np.abs(channel._ndtri(y.copy()).view(np.int64) - ndtri(y).view(np.int64))
    print("ulps from scipy's ndtri:", dict(enumerate(np.bincount(ulps).tolist())))
    tail = np.flatnonzero((y <= e2) | (y > 1.0 - e2))
    t = np.minimum(y[tail], 1.0 - y[tail])
    x = np.sqrt(-2.0 * np.log(t))
    libm_logs = np.ones(y.size, dtype=bool)
    libm_logs[tail] = (np.log(t) == np.array([math.log(v) for v in t.tolist()])) & (
        np.log(x) == np.array([math.log(v) for v in x.tolist()])
    )
    assert libm_logs[-len(edges):].all()
    assert ulps[libm_logs].max() == 0
    assert ulps.max() <= 4
