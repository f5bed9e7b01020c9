"""Executable product-limit pipeline: the four-line decomposition of
a b - a_n b_n paired against a test function, and the Orlicz gauge machinery
(Luxemburg gauge by bisection, generalized Holder).

The pipeline is a verifier for synthetic families with declared weak limits;
estimating weak limits from data is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import lp_norm
from .mollify import convolve_space, make_mollifier
from .parabolic import constant_series, series_inner


# ---------------------------------------------------------------------------
# Orlicz machinery


@dataclass(frozen=True)
class OrliczPair:
    """A convex Young pair; the default is phi(x) = e^x - x - 1 with conjugate
    psi(y) = (1+y)log(1+y) - y."""

    phi: object
    psi: object


def exp_orlicz_pair():
    def phi(x):
        x = np.asarray(x, dtype=float)
        return np.expm1(x) - x

    def psi(y):
        y = np.asarray(y, dtype=float)
        return (1.0 + y) * np.log1p(y) - y

    return OrliczPair(phi, psi)


GAUGE_BISECTIONS = 80


def luxemburg_gauge(f, pair, side="phi"):
    """inf { a > 0 : integral of Phi(|f|/a) <= 1 } by bisection (80 rounds).

    Convention: the gauge of the zero field is 0.
    """
    fn = pair.phi if side == "phi" else pair.psi
    vals = np.abs(f.values[f.mask.inside]) if f.mask is not None else np.abs(f.values).reshape(-1)
    vol = f.grid.cell_volume
    if vals.size == 0 or float(vals.max()) == 0.0:
        return 0.0

    def integral(a):
        with np.errstate(over="ignore"):
            return float(np.sum(fn(vals / a)) * vol)

    hi = max(lp_norm(f, 2), float(vals.max()) * 1e-3)
    for _ in range(200):
        if integral(hi) <= 1.0:
            break
        hi *= 2.0
    else:
        raise RuntimeError("gauge bracket expansion failed")
    lo = hi
    for _ in range(2000):
        nxt = lo / 2.0
        if integral(nxt) >= 1.0 or nxt < 1e-280:
            lo = nxt
            break
        lo = nxt
    for _ in range(GAUGE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if integral(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


HOLDER_CONSTANT = 2.0


@dataclass
class HolderReport:
    lhs: float
    gauge_f: float
    gauge_g: float
    constant: float = HOLDER_CONSTANT


def orlicz_holder_check(f, g, pair=None):
    """Generalized Holder ||fg||_1 <= 2 ||f||_phi ||g||_psi for the Luxemburg
    gauges of a conjugate Young pair (the Young-inequality constant; the
    constant-1 variant needs the Orlicz dual norm on one side)."""
    pair = exp_orlicz_pair() if pair is None else pair
    prod = f * g
    lhs = lp_norm(prod.map(np.abs), 1)
    return HolderReport(lhs, luxemburg_gauge(f, pair, "phi"), luxemburg_gauge(g, pair, "psi"))


# ---------------------------------------------------------------------------
# product pipeline


@dataclass
class PipelineRow:
    n: int
    k: int
    step1: float
    step2: float
    step3: float
    step4: float
    total: float

    @property
    def accounting_defect(self):
        s = self.step1 + self.step2 + self.step3 + self.step4
        return abs(s - self.total) / (abs(self.total) + 1.0)


@dataclass
class PipelineReport:
    rows: list  # PipelineRow, one per (k, n)

    columns = tuple(f.name for f in fields(PipelineRow))

    def max_accounting_defect(self):
        return max(r.accounting_defect for r in self.rows)

    def column(self, name, k=None):
        return [getattr(r, name) for r in self.rows if k is None or r.k == k]


def product_pipeline(a_seq, b_seq, theta, k_list, a_limit, b_limit):
    """Pair the four decomposition lines of a b - a_n b_n against theta for each
    member n and mollifier scale k; the limits a, b are fields, constant in
    time on the members' partition.

    step1 = <ab - a(b*phi_k), theta>              (limit mollification)
    step2 = <a(b*phi_k) - a_n(b_n*phi_k), theta>  (weak convergence line)
    step3 = <commutator, theta>
    step4 = <a_n b_n, theta*phi_k - theta>        (even-kernel transposition)
    """
    if len(a_seq) != len(b_seq):
        raise ValueError("family sizes differ")
    grid = theta.grid
    a_lim = constant_series(a_limit, a_seq[0].interval, a_seq[0].n_steps)
    b_lim = constant_series(b_limit, a_seq[0].interval, a_seq[0].n_steps)
    ab = a_lim * b_lim
    rows = []
    for k in k_list:
        mol = make_mollifier(k, grid)
        b_lim_conv = convolve_space(b_lim, mol)
        theta_conv = convolve_space(theta, mol)
        theta_diff = theta_conv - theta
        s1 = series_inner(ab, theta) - series_inner(a_lim * b_lim_conv, theta)
        for idx, (a_n, b_n) in enumerate(zip(a_seq, b_seq), start=1):
            b_n_conv = convolve_space(b_n, mol)
            anbn = a_n * b_n
            s2 = series_inner(a_lim * b_lim_conv, theta) - series_inner(a_n * b_n_conv, theta)
            s3 = series_inner(a_n * b_n_conv, theta) - series_inner(convolve_space(anbn, mol), theta)
            s4 = series_inner(anbn, theta_diff)
            total = series_inner(ab, theta) - series_inner(anbn, theta)
            rows.append(PipelineRow(idx, k, s1, s2, s3, s4, total))
    return PipelineReport(rows)


def transposition_defect(series, theta, mol):
    """|<v*phi - v, theta> - <v, theta*phi - theta>| / scale for the even kernel."""
    lhs = series_inner(convolve_space(series, mol), theta) - series_inner(series, theta)
    theta_diff = convolve_space(theta, mol) - theta
    rhs = series_inner(series, theta_diff)
    return abs(lhs - rhs) / (abs(rhs) + 1.0)
