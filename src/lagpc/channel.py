"""Channel model for a cognitive link that relays the primary signal.

The cognitive transmitter spends a fraction ``alpha1`` of its power budget
relaying the primary symbol and the rest on its own message, which is
precoded against the known interference with a linear-assignment coefficient
``alpha2``.  Everything here is per-realization and exact; statistical design
lives in :mod:`lagpc.design_fast` and :mod:`lagpc.design_slow`.

All logarithms are base 2 and all rates are in bits per channel use.
"""
from __future__ import annotations

import cmath
from collections import namedtuple

import numpy as np
from numpy.random import Generator, Philox

_UNIT_TOL = 1e-6
_NDTRI_PIECE = 1 << 15  # values per cache-sized piece in _ndtri
PIECE = 1 << 14  # realizations per cache-sized piece of the per-sample passes over a block
LINKS = (0, 1, 2, 3)  # h11, h12, h21, h22: the links a draw can hold
PRIMARY_LINKS = (0, 1)  # h11, h12: the links primary_forms and primary_rate read
CR_LINKS = (2, 3)  # h21, h22: the links cr_forms and cr_rate read

# Cephes ndtri: y + y P0/Q0 at y - 1/2 (of its square) for |y - 1/2| <= 1/2 - e^-2, else x - log(x)/x - P/Q
# (of 1/x), x = sqrt(-2 log y), P1/Q1 below x = 8, P2/Q2 above; highest power first, Q monic (1 x = x).
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703, 13.931260938727968, -1.2391658386738125)
_NDTRI_Q0 = (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905, -225.46268785411937,
             200.26021238006066, -82.03722561683334, 15.90562251262117, -1.1833162112133)
_NDTRI_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213, 44.08050738932008, 14.684956192885803,
             2.1866330685079025, -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_NDTRI_Q1 = (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672, 15.04253856929075, 2.504649462083094,
             -0.14218292285478779, -0.03808064076915783, -0.0009332594808954574)
_NDTRI_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444, 1.3330346081580755, 0.20148538954917908,
             0.012371663481782003, 0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_NDTRI_Q2 = (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132, 0.21623699359449663,
             0.013420400608854318, 0.00032801446468212774, 2.8924786474538068e-06, 6.790194080099813e-09)


class ChannelStats(namedtuple("ChannelStats", "mu11 mu12 mu21 mu22 var11 var12 var21 var22")):
    """Rician statistics of the four links; unit mean-square per link."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("11", "12", "21", "22"):
            mu = getattr(self, "mu" + name)
            var = getattr(self, "var" + name)
            if var < 0:
                raise ValueError(f"negative variance on link {name}")
            if abs(abs(mu) ** 2 + var - 1.0) > _UNIT_TOL:
                raise ValueError(
                    f"link {name}: |mu|^2 + var = {abs(mu)**2 + var:.8f}, expected 1"
                )
        return self

    @classmethod
    def from_k_factor(cls, k_db: float, phases=(0.0, 0.0, 0.0, 0.0)) -> "ChannelStats":
        """All four links Rician with the same K-factor (dB).

        |mu|^2 = K/(K+1) and var = 1/(K+1) so each link has unit mean-square
        gain.  Mean phases default to zero.
        """
        k = 10.0 ** (k_db / 10.0)
        mag = np.sqrt(k / (k + 1.0))
        var = 1.0 / (k + 1.0)
        mus = [mag * cmath.exp(1j * ph) for ph in phases]
        return cls(*mus, var, var, var, var)

    def k_factor(self, link: str) -> float:
        """Linear K-factor |mu|^2/var of one link ("11".."22")."""
        var = getattr(self, "var" + link)
        if var == 0:
            return np.inf
        return abs(getattr(self, "mu" + link)) ** 2 / var


class PowerConfig(namedtuple("PowerConfig", "Pc Pp noise_p noise_s", defaults=(1.0, 1.0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise ValueError("powers and noise variances must be positive")
        return self


class DesignParams(namedtuple("DesignParams", "alpha1 alpha2")):
    """One design point: the relaying ratio alpha1 in [0, 1] and the precoder alpha2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_alpha1(self.alpha1)
        return self


def _check_alpha1(alpha1):
    """ValueError unless every alpha1 (a float or an array) lies in [0, 1]."""
    a1 = np.asarray(alpha1)
    if not ((0.0 <= a1) & (a1 <= 1.0)).all():
        raise ValueError(f"alpha1 = {alpha1} outside [0, 1]")


class ChannelRealization:
    """One draw (or a vector of draws) of the four channel gains; a link that was not drawn is None."""

    def __init__(self, h11, h12, h21, h22):
        self.h11, self.h12, self.h21, self.h22 = h11, h12, h21, h22

    def _gains(self):
        return self.h11, self.h12, self.h21, self.h22

    def __len__(self):
        return np.size(next(h for h in self._gains() if h is not None))

    def __getitem__(self, idx) -> "ChannelRealization":
        return ChannelRealization(*(None if h is None else h[idx] for h in self._gains()))


def _polevl(x, coef, out=None):
    """coef[0] x^n + ... + coef[n] by Horner's rule, as Cephes' polevl (and its p1evl, with coef[0] = 1)."""
    out = np.multiply(x, coef[0], out=out)
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _ndtri(y, scratch=None):
    """The standard normal quantile of y, 0 < y < 1, in place: Cephes' ndtri (scipy's) step for step, so scipy's
    bits where np.log rounds as libm's; piece by cache-sized piece, the centre's formula over all of it, the
    tails' on their values only.  scratch, three rows of at least min(y.size, _NDTRI_PIECE) values, is every
    piece's scratch (a new one if None)."""
    flat = y.reshape(-1)
    q, p, d = np.empty((3, min(flat.size, _NDTRI_PIECE))) if scratch is None else scratch
    for lo in range(0, flat.size, _NDTRI_PIECE):
        c = flat[lo : lo + _NDTRI_PIECE]
        tail = np.flatnonzero((c <= _EXP_M2) | (c > 1.0 - _EXP_M2))
        v = c[tail]
        c -= 0.5  # y - 1/2, then its quantile
        q, p, d = q[: len(c)], p[: len(c)], d[: len(c)]
        _polevl(np.square(c, out=q), _NDTRI_P0, out=p)
        p *= q
        p /= _polevl(q, _NDTRI_Q0, out=d)
        p *= c
        c += p
        c *= 2.50662827463100050242  # sqrt(2 pi)
        x = np.sqrt(-2.0 * np.log(np.minimum(v, 1.0 - v)))  # 1 - v is exact above 1 - e^-2
        z = 1.0 / x
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
        far = np.flatnonzero(x >= 8.0)  # y < e^-32
        x1[far] = z[far] * _polevl(z[far], _NDTRI_P2) / _polevl(z[far], _NDTRI_Q2)
        c[tail] = np.copysign(x - np.log(x) / x - x1, v - 0.5)  # x - log(x)/x - x1 > 0 here
    return y


def _uniforms(n: int, seed: int, start: int, piece: int):
    """The (m, 8) uniforms of each piece of realizations start .. start + n - 1 of the stream in turn,
    every piece filled into one buffer."""
    bitgen = Philox(key=seed)
    # 8 doubles per realization = 2 Philox counter increments.
    bitgen.advance(2 * start)
    gen, fill = Generator(bitgen), np.empty((min(n, piece), 8))
    for lo in range(0, n, piece):
        yield gen.random(out=fill[: min(piece, n - lo)])


def _columns(links) -> list:
    """The columns of a realization's 8 normals that links read: re, then im, of each link in turn."""
    return [c for k in links for c in (2 * k, 2 * k + 1)]


def standard_normals(n: int, seed: int, start: int = 0, links=LINKS) -> np.ndarray:
    """The (n, 2 len(links)) standard normals of links (indices into LINKS) behind realizations
    start .. start + n - 1 of the stream: re, then im, of each link in turn.

    Counter-based: realization index ``start + i`` always consumes the same
    8 uniforms regardless of how the index range is chunked or which links
    are read, so partitioned calls tile into the unchunked stream exactly and
    a subset of links is those links' columns of the all-links draw.  They do
    not depend on the link statistics, so one draw serves every K (see
    realizations).  All four links are one fill of the stream; fewer are
    copied from its normal_pieces, so that only their columns are held.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if tuple(links) != LINKS:
        z = np.empty((n, 2 * len(links)))
        for lo, piece in zip(range(0, n, PIECE), normal_pieces(n, seed, start, links)):
            z[lo : lo + len(piece)] = piece
        return z
    [z] = _uniforms(n, seed, start, n)
    return _ndtri(np.maximum(z, 2.0 ** -53, out=z))  # normals in place; guard ndtri(0) = -inf


def normal_pieces(n: int, seed: int, start: int = 0, links=LINKS):
    """standard_normals(n, seed, start, links) PIECE realizations at a time: its (m, 2 len(links)) pieces
    in turn, which concatenate to it bit for bit.  Every piece is drawn into the same buffers, so a piece
    holds until the next is drawn; only its links' columns of the stream's uniforms are turned into normals."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m, cols = min(n, PIECE), _columns(links)
    z, scratch = np.empty((m, len(cols))), np.empty((3, min(m * len(cols), _NDTRI_PIECE)))
    for u in _uniforms(n, seed, start, PIECE):
        piece = np.take(u, cols, axis=1, out=z[: len(u)], mode="clip")  # in range: one copy
        yield _ndtri(np.maximum(piece, 2.0 ** -53, out=piece), scratch)  # guard ndtri(0) = -inf


def _write_gains(stats: ChannelStats, z: np.ndarray, links, h):
    """sd * z + mu of each of links into the rows of h, with z's normals per row read as complex numbers."""
    sd = np.sqrt(np.array([stats.var11, stats.var12, stats.var21, stats.var22]) / 2.0)
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    for k, col, row in zip(links, z.view(complex).T, h):
        np.multiply(sd[k], col, out=row)
        row += mu[k]


def _realization(h, links) -> ChannelRealization:
    """The realization whose link links[j] is the row h[j]; the links not drawn are None."""
    gains = dict(zip(links, h))
    return ChannelRealization(*(gains.get(k) for k in LINKS))


def realizations(stats: ChannelStats, z: np.ndarray, links=LINKS, out=None) -> ChannelRealization:
    """The realizations of standard_normals z of links at these link statistics: sd * z + mu per link.
    The links are the contiguous rows of one (len(links), n) array (the first n columns of out, if given),
    written PIECE realizations at a time so that each piece of z is read from the cache."""
    h = np.empty((len(links), len(z)), dtype=complex) if out is None else out[:, : len(z)]
    for lo in range(0, len(z), PIECE):
        _write_gains(stats, z[lo : lo + PIECE], links, h[:, lo : lo + PIECE])
    return _realization(h, links)


def sample_realizations(stats: ChannelStats, n: int, seed: int, links=LINKS) -> ChannelRealization:
    """Draw ``n`` iid channel realizations of links, reproducibly: realizations of
    standard_normals(n, seed, links=links), to the bit, written from each of its normal_pieces in turn,
    so that no normals are held."""
    if n < 1:
        raise ValueError("n must be >= 1")
    h = np.empty((len(links), n), dtype=complex)
    for lo, z in zip(range(0, n, PIECE), normal_pieces(n, seed, links=links)):
        _write_gains(stats, z, links, h[:, lo : lo + len(z)])
    return _realization(h, links)


def effective_interference_gain(r: ChannelRealization, alpha1: float, pw: PowerConfig, out=None):
    """Gain from the primary symbol to the CR receiver, direct plus relayed (written into out, if given)."""
    return np.add(r.h21, np.multiply(np.sqrt(alpha1 * pw.Pc / pw.Pp), r.h22, out=out), out=out)


def cr_forms(r: ChannelRealization, alpha1: float, pw: PowerConfig, out=None):
    """(signal, A, B, C) of the cognitive link: at alpha2 its rate is log2(signal / det) per sample,
    det = A + |alpha2|^2 B - 2 Re(alpha2) Re(C) + 2 Im(alpha2) Im(C) the (U, Ys) covariance's determinant.
    They are written into the four arrays of out, C's complex (new ones, of r's shape, if None)."""
    if out is None:
        shape = np.shape(r.h22)  # arrays even for one sample
        out = (np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex))
    signal, a, b, c = out
    sigma2 = (1.0 - alpha1) * pw.Pc
    hs = effective_interference_gain(r, alpha1, pw, out=c)
    h22_pow = np.square(np.abs(r.h22, out=b), out=b)  # each term in the place of the form it ends in
    hs_pow = np.square(np.abs(hs, out=a), out=a)
    h22_pow *= sigma2
    hs_pow *= pw.Pp
    np.add(h22_pow, hs_pow, out=signal)
    signal += pw.noise_s
    signal *= sigma2  # sigma2 * ys_pow
    np.multiply(np.conj(hs, out=hs), r.h22, out=hs)  # C in hs's place; the operand order sets its bits
    c *= sigma2 * pw.Pp
    hs_pow += pw.noise_s
    hs_pow *= sigma2
    h22_pow += pw.noise_s
    h22_pow *= pw.Pp
    return signal, a, b, c


def cr_rate(r: ChannelRealization, p: DesignParams, pw: PowerConfig):
    """Rate I(U; Ys) - I(U; S) of the cognitive user, U = X + alpha2*S, for given gains and design
    (vectorized), from cr_forms through cr_forms_rate; it can be negative for a poor alpha2."""
    if p.alpha1 == 1.0:
        if p.alpha2 != 0:
            raise ValueError("alpha1 = 1 with nonzero alpha2: degenerate covariance")
        return np.zeros(np.shape(r.h22)) if np.ndim(r.h22) else 0.0
    return cr_forms_rate(cr_forms(r, p.alpha1, pw), p.alpha2)


def cr_forms_rate(forms, alpha2, out=None):
    """cr_rate at alpha2 from the cr_forms of its alpha1, which it leaves as they are, so one cr_forms
    call serves every alpha2 of that alpha1.  Given out, two arrays, the rate is written into the first
    and the second is its scratch."""
    signal, a, b, c = forms
    det, t = (None, None) if out is None else out
    det = np.multiply(b, abs(alpha2) ** 2, out=det)
    det += a  # the bits of A + |alpha2|^2 B: addition commutes
    det -= np.multiply(c.real, 2.0 * alpha2.real, out=t)
    det += np.multiply(c.imag, 2.0 * alpha2.imag, out=t)
    out = det if np.ndim(det) else None  # the rate in det's place, so the forms plus det are all it holds
    return np.log2(np.divide(signal, det, out=out), out=out)


def full_csit_rate(r: ChannelRealization, alpha1: float, pw: PowerConfig, out=None):
    """Rate of the cognitive user when its precoder follows each realization: no interference left.
    Written into out, if given."""
    g = np.square(np.abs(r.h22, out=out), out=out)
    g = np.multiply(g, (1.0 - alpha1) * pw.Pc, out=out)
    return np.log2(np.add(np.divide(g, pw.noise_s, out=out), 1.0, out=out), out=out)


def primary_forms(r: ChannelRealization, pw: PowerConfig, out=None):
    """(a, b, c): the primary signal power is a + b amp + c amp^2 at amp = sqrt(alpha1 Pc).  Given out,
    three arrays and a complex one for the cross term, they are written into its first three."""
    a, b, c, cross = (None,) * 4 if out is None else out
    cross = np.multiply(np.conj(r.h11, out=cross), r.h12, out=cross)
    b = np.multiply(np.real(cross), 2.0, out=b)
    b *= np.sqrt(pw.Pp)
    a = np.square(np.abs(r.h11, out=a), out=a)
    a *= pw.Pp
    return a, b, np.square(np.abs(r.h12, out=c), out=c)


def primary_sinr(forms, alpha1: float, pw: PowerConfig, out=None):
    """(signal, interference plus noise) of the primary link at alpha1, from primary_forms: a + b amp + c
    amp^2 and c (1 - alpha1) Pc + noise_p, written into the two arrays of out (two new ones if None)."""
    a, b, c = forms
    amp = np.sqrt(alpha1 * pw.Pc)
    sig, den = (np.empty_like(a), np.empty_like(a)) if out is None else out
    np.multiply(c, amp ** 2, out=den)  # c amp^2 in den's place until den is due
    np.multiply(b, amp, out=sig)
    sig += a
    sig += den
    np.multiply(c, 1.0 - alpha1, out=den)
    den *= pw.Pc
    den += pw.noise_p
    return sig, den


def primary_rate(r: ChannelRealization, alpha1: float, pw: PowerConfig, out=None):
    """Rate of the primary user under partial relaying (vectorized).  Given out, a primary_forms out and a
    primary_sinr out, the forms and the sinr are written into them, and the rate into the sinr's first."""
    _check_alpha1(alpha1)
    forms_out, sinr_out = (None, None) if out is None else out
    sig, den = primary_sinr(primary_forms(r, pw, forms_out), alpha1, pw, sinr_out)
    return np.log2(np.add(np.divide(sig, den, out=sig), 1.0, out=sig), out=sig)


def _outer(x, y):
    """v v^H for v = (x, y); y has the grid's shape and x broadcasts to it."""
    v = np.empty(np.shape(y) + (2,), dtype=complex)
    v[..., 0] = x
    v[..., 1] = y
    return v[..., :, None] * v[..., None, :].conj()


def build_matrices(alpha1, pw: PowerConfig):
    """(P, Q): the primary forms both designs read, in the gains g = (direct, cross).

    g^H P g is the coherent part of the received power and g^H Q g the
    self-interference part.  An array of alpha1 gives stacks [..., 2, 2].
    """
    _check_alpha1(alpha1)
    P = _outer(np.sqrt(pw.Pp), np.sqrt(alpha1 * pw.Pc))
    Q = np.zeros_like(P)
    Q[..., 1, 1] = (1.0 - alpha1) * pw.Pc
    return P, Q


def cr_outage_form(alpha1, alpha2, pw: PowerConfig, r_cr: float):
    """(E, threshold): cr_rate < r_cr at (alpha1, alpha2) exactly when g^H E g < threshold, g = (h21, h22).

    With c0 = var(U) and d = 2^r_cr / sigma2, E = (1 - c0 d) S + d D, where
    S = P + Q and the rank-one D completes the determinant of the (U, Ys)
    covariance.  Arrays of alpha1 and/or alpha2 broadcast to a grid of
    design points: E is then a stack [..., 2, 2] and the threshold an array.
    """
    P, Q = build_matrices(alpha1, pw)
    sigma2 = (1.0 - alpha1) * pw.Pc
    alpha2 = np.asarray(alpha2, dtype=complex)  # one ufunc route for a point and a grid
    c0 = sigma2 + np.square(abs(alpha2)) * pw.Pp
    D = _outer(alpha2 * pw.Pp, sigma2 + alpha2 * np.sqrt(alpha1 * pw.Pc * pw.Pp))
    d = 2.0 ** r_cr / sigma2
    E = np.asarray(1.0 - c0 * d)[..., None, None] * (P + Q) + np.asarray(d)[..., None, None] * D
    return E, (c0 * d - 1.0) * pw.noise_s


def naive_alpha2(stats: ChannelStats, alpha1: float, pw: PowerConfig) -> float:
    """Mean-channel precoding coefficient (ignores the fading spread)."""
    sigma2 = (1.0 - alpha1) * pw.Pc
    g = abs(stats.mu22) ** 2 * sigma2
    return g / (g + pw.noise_s)

