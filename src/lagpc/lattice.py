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

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from . import channel
from .channel import ChannelRealization, DesignParams, PowerConfig

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


def _round_nearest(x):
    """Componentwise nearest integer (exact halves fall to the even side)."""
    return np.rint(x)


def _closest_d8(x: np.ndarray) -> np.ndarray:
    """Nearest point of D8 (integer vectors with even sum), batched (..., 8)."""
    f = _round_nearest(x)
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


@dataclass(frozen=True)
class Lattice:
    """A scaled copy of E8; gen = scale * base generator, columns as basis."""

    gen: np.ndarray
    scale: float

    def __post_init__(self):
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise ValueError("scale must be positive and finite")

    @classmethod
    def scaled_e8(cls, scale: float) -> "Lattice":
        return cls(scale * e8_generator(), float(scale))

    def closest(self, x) -> np.ndarray:
        return self.scale * e8_closest_point(np.asarray(x, dtype=float) / self.scale)


def mod_lambda(x, coarse: Lattice) -> np.ndarray:
    """Residue of x in the coarse Voronoi region: x minus its nearest point."""
    x = np.asarray(x, dtype=float)
    return x - coarse.closest(x)


@dataclass(frozen=True)
class NestedPair:
    fine: Lattice
    coarse: Lattice
    q_nest: int
    rate_bpcu: float

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
    return NestedPair(fine, coarse, q_nest, 2.0 * np.log2(q_nest))


def message_to_digits(index: int, q: int) -> np.ndarray:
    if not 0 <= index < q ** N_DIM:
        raise ValueError("message index out of range")
    digits = np.empty(N_DIM, dtype=np.int64)
    for i in range(N_DIM):
        index, digits[i] = divmod(index, q)
    return digits


def digits_to_message(digits, q: int) -> int:
    idx = 0
    for d in reversed(np.asarray(digits, dtype=np.int64) % q):
        idx = idx * q + int(d)
    return int(idx)


def codeword(pair: NestedPair, index: int) -> np.ndarray:
    """Voronoi-codebook representative of one message."""
    b = message_to_digits(index, pair.q_nest)
    return mod_lambda(pair.fine.gen @ b, pair.coarse)


def sample_dither(pair: NestedPair, rng: Generator) -> np.ndarray:
    """Uniform over the coarse cell: uniform parallelepiped point, folded."""
    u = rng.random(N_DIM)
    return mod_lambda(pair.coarse.gen @ u, pair.coarse)


def _gain(c: complex, frame) -> np.ndarray:
    """A complex gain applied to each channel use of an interleaved frame."""
    return (c * np.ascontiguousarray(frame, dtype=float).view(complex)).view(float)


@dataclass(frozen=True)
class FilterSet:
    """Precoder, receiver gain and error variance of one realization.

    precoder = alpha2 / sqrt(sigma2) scales the interference frame that the
    encoder subtracts; z is the MMSE gain on the received frame; error_var is
    the per-dimension variance of the effective error z*y + d - codeword.
    regularized is always False: error_var is a sum of nonnegative terms, one
    of which is positive (noise_s |z|^2 when z != 0, and 1/2 when z = 0), so
    it never needs a ridge.
    """

    precoder: complex
    z: complex
    error_var: float
    regularized: bool = False


def build_filters(
    r: ChannelRealization,
    params: DesignParams,
    pw: PowerConfig,
    s_power: float | None = None,
) -> FilterSet:
    """Side-information precoder, MMSE gain and error variance for one realization.

    s_power overrides the interference power seen by the filter design (0
    builds the interference-free baseline).
    """
    if params.alpha1 >= 1.0:
        raise ValueError("no lattice signal at alpha1 = 1")
    sigma2 = (1.0 - params.alpha1) * pw.Pc
    root = np.sqrt(sigma2)
    h22 = complex(np.asarray(r.h22).item())
    hs = complex(np.asarray(channel.effective_interference_gain(r, params.alpha1, pw)).item())
    s_pow = pw.Pp if s_power is None else float(s_power)
    pre = complex(params.alpha2) / root
    z = (root * h22.conjugate() + pre * s_pow * hs.conjugate()) / (
        sigma2 * abs(h22) ** 2 + s_pow * abs(hs) ** 2 + pw.noise_s
    )
    err = 0.5 * (
        abs(z * root * h22 - 1.0) ** 2 + s_pow * abs(z * hs - pre) ** 2 + pw.noise_s * abs(z) ** 2
    )
    return FilterSet(precoder=pre, z=z, error_var=float(err))


def achievable_rate(filters: FilterSet) -> float:
    """Rate supported by the per-dimension error variance, bits per channel use."""
    if not filters.error_var > 0.0:
        raise ValueError("error variance not positive")
    return float(-1.0 - np.log2(filters.error_var))


def encode(
    message_index: int,
    s_frame: np.ndarray,
    dither: np.ndarray,
    pair: NestedPair,
    filters: FilterSet,
    alpha1: float,
    p_c: float,
) -> np.ndarray:
    """Dithered mod-coarse transmit frame for one message."""
    c_c = codeword(pair, message_index)
    v = mod_lambda(c_c - _gain(filters.precoder, s_frame) - dither, pair.coarse)
    return np.sqrt((1.0 - alpha1) * p_c) * v


def decode(
    y: np.ndarray, filters: FilterSet, dither: np.ndarray, pair: NestedPair
) -> int:
    """Message index recovered from one received frame.

    The error of z*y + dither is white (error_var in every dimension), so
    the nearest fine-lattice point is the maximum-likelihood decision.
    """
    point = pair.fine.closest(_gain(filters.z, y) + dither)
    b = np.rint(np.linalg.solve(pair.fine.gen, point)).astype(np.int64)
    return digits_to_message(b, pair.q_nest)


def transmit_samples(
    pair: NestedPair,
    filters: FilterSet,
    alpha1: float,
    pw: PowerConfig,
    n_frames: int = 20000,
    seed: int = 0,
) -> np.ndarray:
    """Per-coordinate samples of the complete on-air transmit signal.

    Each frame is an encoded random message (dithered mod-coarse part) plus
    the relayed share of the primary stream.  The codeword part alone is
    uniform over the coarse cell, visibly sub-Gaussian; relaying is what
    makes the aggregate nearly Gaussian at designed operating points.
    """
    rng = Generator(Philox(key=seed))
    relay = np.sqrt(alpha1 * pw.Pc / pw.Pp)
    out = np.empty((n_frames, N_DIM))
    for i in range(n_frames):
        msg = int(rng.integers(pair.codebook_size))
        dither = sample_dither(pair, rng)
        s_c = (rng.normal(size=T_SYMBOLS) + 1j * rng.normal(size=T_SYMBOLS)) * np.sqrt(
            pw.Pp / 2.0
        )
        s_frame = s_c.view(float)
        x = encode(msg, s_frame, dither, pair, filters, alpha1, pw.Pc)
        out[i] = x + relay * s_frame
    return out.ravel()


@dataclass(frozen=True)
class LatticeScenario:
    k_db: float
    rate_bpcu: float
    snr_db: tuple
    trials: int = 2000
    seed: int = 0
    p_p: float = 100.0
    noise: float = 1.0
    alpha1: float = 0.0
    scheme: str = "la_gpc"  # or no_interference / interference_as_noise
    theory_n: int = 10 ** 5


@dataclass(frozen=True)
class ErrorRatePoint:
    snr_db: float
    scheme: str
    error_rate: float
    ci95: float
    trials: int
    theory_outage: float
    alpha1: float
    alpha2: complex
    seed: int


def _design_alpha2(scheme, stats, alpha1, pw, rate):
    from . import design_slow  # local import; cycle with design modules

    if scheme == "la_gpc":
        return complex(design_slow.solve_alpha2_slow(stats, alpha1, pw, rate).alpha2)
    if scheme in ("no_interference", "interference_as_noise"):
        return 0j
    raise ValueError(f"unknown scheme {scheme!r}")


def codeword_error_sim(scenario: LatticeScenario) -> list[ErrorRatePoint]:
    """Codeword error rate across the SNR sweep, with the matched-rate
    outage of the unstructured scheme as the theory reference."""
    from . import montecarlo

    q = int(round(2.0 ** (scenario.rate_bpcu / 2.0)))
    if 2.0 * np.log2(q) != scenario.rate_bpcu:
        raise ValueError("rate must be 2*log2(q) for integer q")
    stats = channel.ChannelStats.from_k_factor(scenario.k_db)
    pair = build_nested(q)
    # what is actually on the air vs what the receiver filter assumes; they
    # coincide for every scheme here (the as-noise receiver knows the power,
    # it just cannot precode against the realization)
    interference_on = scenario.scheme != "no_interference"
    filter_s_power = scenario.p_p if interference_on else 0.0
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    sd = np.sqrt([stats.var11, stats.var12, stats.var21, stats.var22])
    rows = []
    for i, snr in enumerate(scenario.snr_db):
        p_c = 10.0 ** (snr / 10.0)
        pw = PowerConfig(p_c, scenario.p_p, noise_p=1.0, noise_s=scenario.noise)
        a2 = _design_alpha2(scenario.scheme, stats, scenario.alpha1, pw, scenario.rate_bpcu)
        params = DesignParams(scenario.alpha1, a2)
        rng = Generator(Philox(SeedSequence(entropy=scenario.seed, spawn_key=(i,))))
        errors = 0
        for _ in range(scenario.trials):
            g = (rng.normal(size=4) + 1j * rng.normal(size=4)) / np.sqrt(2.0)
            h = mu + sd * g
            r = ChannelRealization(*h)
            hs = complex(channel.effective_interference_gain(r, scenario.alpha1, pw))
            filters = build_filters(r, params, pw, s_power=filter_s_power)
            msg = int(rng.integers(pair.codebook_size))
            dither = sample_dither(pair, rng)
            if interference_on:
                s_c = (rng.normal(size=T_SYMBOLS) + 1j * rng.normal(size=T_SYMBOLS)) * np.sqrt(
                    scenario.p_p / 2.0
                )
            else:
                s_c = np.zeros(T_SYMBOLS, dtype=complex)
            s_frame = s_c.view(float)
            x = encode(msg, s_frame, dither, pair, filters, scenario.alpha1, p_c)
            z = rng.normal(size=N_DIM) * np.sqrt(scenario.noise / 2.0)
            y = _gain(complex(r.h22), x) + _gain(hs, s_frame) + z
            errors += decode(y, filters, dither, pair) != msg
        p_err = errors / scenario.trials
        ci = 1.96 * np.sqrt(max(p_err * (1.0 - p_err), 1e-12) / scenario.trials)
        # matched-rate outage of the unstructured scheme; the clean-channel
        # baseline is compared against the interference-free outage
        theory_which = "full_csit" if scenario.scheme == "no_interference" else "cr"
        theory = montecarlo.outage_probability(
            stats, params, pw, scenario.rate_bpcu, theory_which,
            n=scenario.theory_n, seed=scenario.seed,
        ).value
        rows.append(
            ErrorRatePoint(
                snr_db=float(snr),
                scheme=scenario.scheme,
                error_rate=float(p_err),
                ci95=float(ci),
                trials=scenario.trials,
                theory_outage=float(theory),
                alpha1=scenario.alpha1,
                alpha2=a2,
                seed=scenario.seed,
            )
        )
    return rows
