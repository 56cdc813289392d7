"""Nested-lattice codec realizing the precoded cognitive link over E8.

One frame is T = 4 complex channel uses held as 2T = 8 real dimensions,
re/im interleaved, so ``frame.view(complex)`` is the per-use vector and every
gain of the link is one complex multiply.  Codewords are fine-lattice points
inside the coarse Voronoi region; the encoder runs dithered mod-coarse
precoding against the known interference frame.  The receiver's scalar MMSE
gain leaves an error that is white with the same variance in all 8
dimensions, so the nearest fine-lattice point of the dithered estimate is
the maximum-likelihood decision.  The pair is scaled in closed form from the
normalized second moment of E8, G = 929/12960 (Conway & Sloane, SPLAG,
Table 2.3).
"""
from __future__ import annotations

import functools
from collections import namedtuple
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import channel, design_slow, montecarlo
from .channel import ChannelRealization, DesignParams, PowerConfig

SCHEMES = ("la_gpc", "no_interference", "interference_as_noise")
T_SYMBOLS = 4
N_DIM = 2 * T_SYMBOLS
E8_SECOND_MOMENT = 929.0 / 12960.0  # per dimension, unit-volume E8


def e8_generator() -> np.ndarray:
    """Integer-halves basis of the unimodular E8 lattice, columns as basis."""
    rows = np.array(
        [
            [2, 0, 0, 0, 0, 0, 0, 0],
            [-1, 1, 0, 0, 0, 0, 0, 0],
            [0, -1, 1, 0, 0, 0, 0, 0],
            [0, 0, -1, 1, 0, 0, 0, 0],
            [0, 0, 0, -1, 1, 0, 0, 0],
            [0, 0, 0, 0, -1, 1, 0, 0],
            [0, 0, 0, 0, 0, -1, 1, 0],
            [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
        ]
    )
    return rows.T.copy()


@functools.cache
def _e8_coordinates() -> np.ndarray:
    """Matrix taking E8 points (..., 8), multiplied on the right, to their
    basis coordinates; built on first use, so importing runs no LAPACK."""
    return np.linalg.inv(e8_generator()).T


def _closest_d8(x: np.ndarray) -> np.ndarray:
    """Nearest point of D8 (integer vectors with even sum), batched (..., 8);
    exact halves round to the even side."""
    f = np.rint(x)
    err = x - f
    odd = np.sum(f, axis=-1) % 2 != 0
    if np.any(odd):
        worst = np.argmax(np.abs(err), axis=-1)
        idx = np.nonzero(odd)
        flat = f[idx]
        w = worst[idx]
        rows = np.arange(flat.shape[0])
        delta = err[idx][rows, w]
        # reround the least certain coordinate the other way; an exact
        # integer moves down, keeping the flipped vector lexicographically small
        flat[rows, w] += np.where(delta > 0, 1.0, -1.0)
        f[idx] = flat
    return f


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise-batched test: is a lexicographically smaller than b."""
    diff = a != b
    any_diff = np.any(diff, axis=-1)
    first = np.argmax(diff, axis=-1)
    take = np.take_along_axis(a, first[..., None], axis=-1)[..., 0]
    takeb = np.take_along_axis(b, first[..., None], axis=-1)[..., 0]
    return np.where(any_diff, take < takeb, False)


def e8_closest_point(x) -> np.ndarray:
    """Exact nearest E8 point(s) of x with shape (..., 8).

    E8 = D8 union (D8 + 1/2); the closer of the two coset roundings wins,
    an exact distance tie going to the lexicographically smaller vector.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    cand_int = _closest_d8(x)
    cand_half = _closest_d8(x - 0.5) + 0.5
    d_int = np.sum((x - cand_int) ** 2, axis=-1)
    d_half = np.sum((x - cand_half) ** 2, axis=-1)
    pick_half = (d_half < d_int) | ((d_half == d_int) & _lex_smaller(cand_half, cand_int))
    out = np.where(pick_half[..., None], cand_half, cand_int)
    return out[0] if squeeze else out


class Lattice(namedtuple("Lattice", "gen scale")):
    """A scaled copy of E8; gen = scale * base generator, columns as basis."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise ValueError("scale must be positive and finite")
        return self

    @classmethod
    def scaled_e8(cls, scale: float) -> "Lattice":
        return cls(scale * e8_generator(), float(scale))

    def closest(self, x) -> np.ndarray:
        return self.scale * e8_closest_point(np.asarray(x, dtype=float) / self.scale)


def mod_lambda(x, coarse: Lattice) -> np.ndarray:
    """Residue of x in the coarse Voronoi region: x minus its nearest point."""
    x = np.asarray(x, dtype=float)
    return x - coarse.closest(x)


class NestedPair(NamedTuple):
    fine: Lattice
    coarse: Lattice
    q_nest: int

    @property
    def codebook_size(self) -> int:
        return self.q_nest ** N_DIM


def build_nested(q_nest: int) -> NestedPair:
    """Fine/coarse pair whose coarse cell has per-dimension second moment 1/2.

    The unit-volume E8 cell has per-dimension second moment G(E8), so the
    coarse lattice is E8 scaled by sqrt(0.5 / G(E8)) and the fine one is that
    divided by q_nest.
    """
    if q_nest not in (2, 4):
        raise ValueError("q_nest must be 2 or 4")
    scale = np.sqrt(0.5 / E8_SECOND_MOMENT) / q_nest
    fine = Lattice.scaled_e8(scale)
    coarse = Lattice.scaled_e8(scale * q_nest)
    return NestedPair(fine, coarse, q_nest)


def message_to_digits(index, q: int) -> np.ndarray:
    """Base-q digits (least significant first) of message indices (...,), as (..., 8)."""
    index = np.asarray(index, dtype=np.int64)
    if np.any((index < 0) | (index >= q ** N_DIM)):
        raise ValueError("message index out of range")
    return index[..., None] // q ** np.arange(N_DIM) % q


def digits_to_message(digits, q: int):
    """Message indices (...,) of digit vectors (..., 8), each digit taken mod q."""
    return np.asarray(digits, dtype=np.int64) % q @ q ** np.arange(N_DIM)


def _apply(gen: np.ndarray, x) -> np.ndarray:
    """gen @ x for every row of a stack (..., 8).  Each row is the same
    matrix-vector product as a lone gen @ x, so stacks agree with per-row
    calls to the bit."""
    return np.matmul(gen, np.asarray(x)[..., None])[..., 0]


def codeword(pair: NestedPair, index) -> np.ndarray:
    """Voronoi-codebook representatives (..., 8) of messages (...,)."""
    b = message_to_digits(index, pair.q_nest)
    return mod_lambda(_apply(pair.fine.gen, b), pair.coarse)


def _fold_dither(pair: NestedPair, u) -> np.ndarray:
    """Uniform parallelepiped points from uniforms u (..., 8), folded into the coarse cell."""
    return mod_lambda(_apply(pair.coarse.gen, u), pair.coarse)


def _gain(c, frame) -> np.ndarray:
    """Complex gains c (...,) applied to each channel use of interleaved frames (..., 8)."""
    frame = np.ascontiguousarray(frame, dtype=float).view(complex)
    return (np.asarray(c)[..., None] * frame).view(float)


class FilterSet(NamedTuple):
    """Receiver gain and error variance of one realization or a stack.

    z is the MMSE gain on the received frame; error_var is the per-dimension
    variance of the effective error z*y + d - codeword.
    z and error_var have the realization's shape, length-1 axes dropped.
    regularized is always False: error_var is a sum of nonnegative terms, one
    of which is positive (noise_s |z|^2 when z != 0, and 1/2 when z = 0), so
    it never needs a ridge.
    """

    z: complex | np.ndarray
    error_var: float | np.ndarray
    regularized: bool = False


def _precoder(params: DesignParams, pw: PowerConfig) -> complex:
    """alpha2 / sqrt(sigma2), the gain on the interference frame that the encoder subtracts."""
    if params.alpha1 >= 1.0:
        raise ValueError("no lattice signal at alpha1 = 1")
    return complex(params.alpha2) / np.sqrt((1.0 - params.alpha1) * pw.Pc)


def build_filters(
    r: ChannelRealization,
    params: DesignParams,
    pw: PowerConfig,
    s_power: float | None = None,
) -> FilterSet:
    """MMSE gain and error variance per realization under the side-information precoder (_precoder).

    A stack r of n realizations gives z and error_var of shape (n,); the
    one-realization slice r[i : i + 1] gives 0-d ones, equal to row i of the
    stack.  s_power overrides the interference power seen by the filter
    design (0 builds the interference-free baseline).
    """
    pre = _precoder(params, pw)
    sigma2 = (1.0 - params.alpha1) * pw.Pc
    root = np.sqrt(sigma2)
    h22 = np.asarray(r.h22)
    hs = np.asarray(channel.effective_interference_gain(r, params.alpha1, pw))
    s_pow = pw.Pp if s_power is None else float(s_power)
    z = (root * np.conj(h22) + pre * s_pow * np.conj(hs)) / (
        sigma2 * np.abs(h22) ** 2 + s_pow * np.abs(hs) ** 2 + pw.noise_s
    )
    err = 0.5 * (
        np.abs(z * root * h22 - 1.0) ** 2 + s_pow * np.abs(z * hs - pre) ** 2 + pw.noise_s * np.abs(z) ** 2
    )
    return FilterSet(z=np.squeeze(z), error_var=np.squeeze(err))


def encode(
    message_index,
    s_frame: np.ndarray,
    dither: np.ndarray,
    pair: NestedPair,
    params: DesignParams,
    pw: PowerConfig,
) -> np.ndarray:
    """Dithered mod-coarse transmit frames (..., 8) for messages (...,) at the design point params."""
    c_c = codeword(pair, message_index)
    v = mod_lambda(c_c - _gain(_precoder(params, pw), s_frame) - dither, pair.coarse)
    return np.sqrt((1.0 - params.alpha1) * pw.Pc) * v


def decode(y: np.ndarray, filters: FilterSet, dither: np.ndarray, pair: NestedPair):
    """Message indices (...,) recovered from received frames (..., 8).

    The error of z*y + dither is white (error_var in every dimension), so
    the nearest fine-lattice point is the maximum-likelihood decision.
    """
    point = e8_closest_point((_gain(filters.z, y) + dither) / pair.fine.scale)
    return digits_to_message(np.rint(point @ _e8_coordinates()), pair.q_nest)


def transmit_samples(
    pair: NestedPair,
    params: DesignParams,
    pw: PowerConfig,
    n_frames: int = 20000,
    seed: int = 0,
) -> np.ndarray:
    """Per-coordinate samples of the complete on-air transmit signal at the design point params.

    Each frame is an encoded random message (dithered mod-coarse part) plus
    the relayed share of the primary stream.  The codeword part alone is
    uniform over the coarse cell, visibly sub-Gaussian; relaying is what
    makes the aggregate nearly Gaussian at designed operating points.
    """
    rng = Generator(Philox(key=seed))
    # each frame draws its message, dither uniforms and interference in turn
    msgs = np.empty(n_frames, dtype=np.int64)
    u = np.empty((n_frames, N_DIM))
    g = np.empty((n_frames, N_DIM))
    for i in range(n_frames):
        msgs[i] = rng.integers(pair.codebook_size)
        rng.random(out=u[i])
        rng.standard_normal(out=g[i])
    s_frame = ((g[:, :T_SYMBOLS] + 1j * g[:, T_SYMBOLS:]) * np.sqrt(pw.Pp / 2.0)).view(float)
    x = encode(msgs, s_frame, _fold_dither(pair, u), pair, params, pw)
    relay = np.sqrt(params.alpha1 * pw.Pc / pw.Pp)
    return (x + relay * s_frame).ravel()


class LatticeScenario(namedtuple("LatticeScenario", "k_db rate_bpcu snr_db trials seed p_p noise alpha1 "
                                 "schemes theory_n", defaults=(2000, 0, 100.0, 1.0, 0.0, ("la_gpc",), 10 ** 5))):
    """One codec sweep over snr_db; schemes are each one of SCHEMES."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not set(self.schemes) <= set(SCHEMES):
            raise ValueError(f"unknown scheme in {self.schemes!r}")
        return self


class ErrorRatePoint(NamedTuple):
    snr_db: float
    scheme: str
    error_rate: float
    ci95: float
    theory_outage: float
    alpha1: float
    alpha2: complex


def codeword_error_sim(scenario: LatticeScenario) -> list[ErrorRatePoint]:
    """Codeword error rate of each of the scenario's schemes across the SNR
    sweep, with the matched-rate outage of the unstructured scheme as the
    theory reference.

    Each SNR point draws every trial's randomness from its own stream in
    trial order (channel, message, dither, interference, noise), once per
    draw shape: the schemes that put interference on the air share one draw,
    no_interference, which draws none, another.  Each scheme then runs the
    filters, the encoder and the decoder once on the (trials, 8) stack.
    The outage is scored on one block, the first theory_n realizations of
    channel.sample_realizations at the scenario's K and seed, of the links
    h21 and h22 that the outage reads, and one montecarlo.estimates call (one
    cr_forms) scores every scheme's outage at an SNR; the points come back
    scheme by scheme.
    """
    schemes = scenario.schemes
    q = int(round(2.0 ** (scenario.rate_bpcu / 2.0)))
    if 2.0 * np.log2(q) != scenario.rate_bpcu:
        raise ValueError("rate must be 2*log2(q) for integer q")
    stats = channel.ChannelStats.from_k_factor(scenario.k_db)
    block = channel.sample_realizations(stats, scenario.theory_n, scenario.seed, links=channel.CR_LINKS)
    pair = build_nested(q)
    # no_interference puts no primary signal on the air, so its theory outage is
    # full_csit's and its receiver filter sees none (the as-noise receiver knows the
    # interference power, it just cannot precode against the realization); each scheme
    # transmits at montecarlo's scheme_params of its theory scheme, from la_gpc's
    # design (alpha2 = 0 but for la_gpc)
    theory_which = ["full_csit" if s == "no_interference" else s for s in schemes]
    rows = [[] for _ in schemes]
    for i, snr in enumerate(scenario.snr_db):
        p_c = 10.0 ** (snr / 10.0)
        pw = PowerConfig(p_c, scenario.p_p, noise_p=1.0, noise_s=scenario.noise)
        a2 = design_slow.solve_alpha2_slow(stats, scenario.alpha1, pw, scenario.rate_bpcu)[0]
        design = DesignParams(scenario.alpha1, a2)
        theory = montecarlo.estimates(block, stats, design, pw, theory_which, scenario.rate_bpcu)
        draws = {}  # interference on the air -> the trials of that draw shape
        for s, which, est, points in zip(schemes, theory_which, theory, rows):
            params = montecarlo.scheme_params(which, stats, design, pw)
            on = s != "no_interference"
            if on not in draws:
                draws[on] = _trial_draws(scenario, stats, i, pair, on)
            p_err, ci = _codec_error_rate(draws[on], on, pw, params, pair)
            points.append(ErrorRatePoint(
                snr_db=float(snr), scheme=s, error_rate=p_err, ci95=ci,
                theory_outage=float(est.value), alpha1=params.alpha1, alpha2=complex(params.alpha2),
            ))
    return [p for points in rows for p in points]


def _trial_draws(scenario: LatticeScenario, stats, i: int, pair: NestedPair, interference_on: bool) -> tuple:
    """Every trial's randomness at the scenario's i-th SNR, drawn from its stream in trial order: the
    channel (links h21 and h22 only), the messages, the folded dithers, the interference frames (zeros
    when none is on the air) and the noise normals."""
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    sd = np.sqrt([stats.var11, stats.var12, stats.var21, stats.var22])
    n = scenario.trials
    rng = Generator(Philox(SeedSequence(entropy=scenario.seed, spawn_key=(i,))))
    g = np.empty((n, 8))  # re, then im, of the four gains
    msgs = np.empty(n, dtype=np.int64)
    u = np.empty((n, N_DIM))
    w = np.empty((n, 2 * N_DIM if interference_on else N_DIM))  # interference, then noise
    # a normal draw of size k is k scalar draws, so one call per group
    # reads the stream exactly as separate re/im/noise calls would
    for t in range(n):
        rng.standard_normal(out=g[t])
        msgs[t] = rng.integers(pair.codebook_size)
        rng.random(out=u[t])
        rng.standard_normal(out=w[t])
    h = np.empty((2, n), dtype=complex)  # one contiguous row per link, as channel.realizations
    for k, row in zip(channel.CR_LINKS, h):
        row[...] = mu[k] + sd[k] * ((g[:, k] + 1j * g[:, 4 + k]) / np.sqrt(2.0))
    if interference_on:
        s_frame = ((w[:, :T_SYMBOLS] + 1j * w[:, T_SYMBOLS:N_DIM]) * np.sqrt(scenario.p_p / 2.0)).view(float)
    else:
        s_frame = np.zeros((n, N_DIM))
    return ChannelRealization(None, None, *h), msgs, _fold_dither(pair, u), s_frame, w[:, -N_DIM:]


def _codec_error_rate(trials: tuple, interference_on: bool, pw: PowerConfig, params: DesignParams, pair
                      ) -> tuple[float, float]:
    """(codeword error rate, its 95% half-width) of the _trial_draws trials at the design point params."""
    r, msgs, dither, s_frame, noise = trials
    n = len(msgs)
    hs = channel.effective_interference_gain(r, params.alpha1, pw)
    filters = build_filters(r, params, pw, s_power=None if interference_on else 0.0)
    x = encode(msgs, s_frame, dither, pair, params, pw)
    y = _gain(r.h22, x) + _gain(hs, s_frame) + noise * np.sqrt(pw.noise_s / 2.0)
    p_err = np.count_nonzero(decode(y, filters, dither, pair) != msgs) / n
    return float(p_err), float(1.96 * np.sqrt(max(p_err * (1.0 - p_err), 1e-12) / n))
