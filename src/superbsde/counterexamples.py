"""Finite numerical instantiations of the three ill-posedness constructions
for superquadratic backward equations: the non-existence ingredient series,
the non-uniqueness excursion process, and the non-stability comb sequence,
each with its quantitative bounds checked.

The power generator g(z) = |z|^q is used throughout: the constructions only
need *some* sequence satisfying the growth inequalities, and the closed-form
extremal choice makes every bound checkable without a sequence search.
The Thm 3.1 series and the Thm 3.3 dip probability are computed exactly and
draw nothing; the Thm 3.4 checks sample paths once, witness row included.
"""

import math
from dataclasses import dataclass

import numpy as np
# Unused here: every normal comes from forward_model.path_normals.  Kept
# because perfbench/tracer.py (Tracer.count_rng) patches these two names.
from numpy.random import Generator, Philox  # noqa: F401

from . import _kernels
from .errors import RangeOverflowError
from .forward_model import map_path_blocks, path_normals

# Bytes per block of the Thm 3.4 joint channel (memory only: per-path
# streams make the results independent of the block size).  A joint block
# holds its normals and its integrals component-major, each about
# k_max x paths x (n_coarse + 1) floats, so `_joint_block` gives as many
# paths as fit this budget, and memory is the blocks in flight, at most
# forward_model.WORKERS, times the budget for any n_coarse.  At k_max = 3,
# n_coarse = 4096 it gives 16 paths (98,328 bytes per path per array).
# Measured on 2 CPUs against the former fixed 64-path blocks: cx_comb peak
# RSS 80 -> 53 MB at the same wall time.  32-path blocks peaked at
# 64-67 MB; 8-path blocks at 49.5 MB, but their per-block overhead read
# 0.69-0.74 s per pass against 0.66-0.72 s, so blocks stay near 16 paths.
_JOINT_BLOCK_BYTES = 1_600_000
# terms summed before the Euler-Maclaurin tail of zeta
_ZETA_DIRECT = 2048
# the multiple of 1/alpha the Thm 3.1 divergence witness waits for
_DIVERGENCE_BUDGET = 10.0
# the Thm 3.4 joint channel and the witness stop here
PATH_K_MAX = 3


@dataclass(frozen=True)
class CheckRow:
    """One check; a soft row (hard=False) is reported but never fails a run."""

    construction: str
    check: str
    value: float
    threshold: float
    passed: bool
    hard: bool = True


class _Report:
    @property
    def all_passed(self):
        """Every hard row passed; soft rows are reports only."""
        return all(r.passed for r in self.rows if r.hard)


def _check_n_paths(n_paths):
    """Every Monte Carlo channel reports a standard error, which needs two paths."""
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2, got {n_paths}")


def _euler_maclaurin_zeta(s):
    """sum_{k>=1} k^{-s} by direct summation plus an Euler-Maclaurin tail."""
    k = np.arange(1, _ZETA_DIRECT + 1, dtype=float)
    head = float(np.sum(k ** (-s)))
    N = float(_ZETA_DIRECT)
    tail = N ** (1.0 - s) / (s - 1.0) - 0.5 * N ** (-s) + s / 12.0 * N ** (-s - 1.0)
    return head + tail


# ---------------------------------------------------------------------------
# Non-existence ingredients (blocks z_k on slots of width delta_k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm31Sequences:
    q: float
    K: int
    T: float
    z: np.ndarray
    delta: np.ndarray
    alpha: float
    cost_terms: np.ndarray  # g(z_k) delta_k
    z2_terms: np.ndarray    # z_k^2 delta_k
    q2_terms: np.ndarray    # g'(z_k)^2 delta_k


def build_thm31(q, K, T):
    """Extremal sequences z_k = k^{1/(q-2)}, slots delta_k = 1/(alpha z g' k^2),
    with alpha normalized so the slots sum to the horizon."""
    if not q > 2.0:
        raise ValueError("need q > 2")
    if K < 10:
        raise ValueError("need K >= 10")
    k = np.arange(1, K + 1, dtype=float)
    with np.errstate(over="raise"):
        try:
            z = k ** (1.0 / (q - 2.0))
            gz = z ** q
            gp = q * z ** (q - 1.0)
        except FloatingPointError as exc:
            raise RangeOverflowError(f"z_k overflows for q={q}, K={K}") from exc
    if not np.all(np.isfinite(gp * z)):
        raise RangeOverflowError(f"z_k g'(z_k) overflows for q={q}, K={K}")
    s_exp = q / (q - 2.0) + 2.0
    alpha = _euler_maclaurin_zeta(s_exp) / (q * T)
    delta = 1.0 / (alpha * z * gp * k**2)
    return Thm31Sequences(q=float(q), K=int(K), T=float(T), z=z, delta=delta,
                          alpha=float(alpha), cost_terms=gz * delta,
                          z2_terms=z**2 * delta, q2_terms=gp**2 * delta)


@dataclass(frozen=True)
class Thm31Report(_Report):
    rows: tuple
    cost_partial: float
    z2_partial: float
    q2_partial: float
    slot_sum_with_tail: float
    divergence_K: int


def thm31_series_report(seq):
    """Comparison chains for the three series and the divergence witness.

    Cost stays under the k^{-2} comparison, the Z-energy under k^{-3},
    while the control energy dominates the harmonic series; the witness
    reports the K at which its partial sum passes 10/alpha, as a soft row
    (it is a report, not a bound that can fail).
    """
    k = np.arange(1, seq.K + 1, dtype=float)
    inv_a = 1.0 / seq.alpha
    rows = []

    term_32 = np.all(seq.q * seq.z ** (seq.q - 1.0) >= seq.z ** (seq.q - 1.0) * (1.0 - 1e-12)) \
        and np.all(seq.z ** (seq.q - 1.0) >= k * seq.z * (1.0 - 1e-12))
    rows.append(CheckRow("3.1", "termwise g' >= g/z >= k z", float(term_32), 1.0, bool(term_32)))

    cost = float(np.sum(seq.cost_terms))
    cost_cmp = inv_a * float(np.sum(k**-2.0))
    rows.append(CheckRow("3.1", "cost sum <= (1/a) sum k^-2", cost, cost_cmp,
                         cost <= cost_cmp * (1.0 + 1e-12)))

    z2 = float(np.sum(seq.z2_terms))
    z2_cmp = inv_a * float(np.sum(k**-3.0))
    rows.append(CheckRow("3.1", "z^2 sum <= (1/a) sum k^-3", z2, z2_cmp,
                         z2 <= z2_cmp * (1.0 + 1e-12)))

    q2 = float(np.sum(seq.q2_terms))
    harmonic = float(np.sum(1.0 / k))
    rows.append(CheckRow("3.1", "q^2 sum >= (1/a) H_K", q2, inv_a * harmonic,
                         q2 >= inv_a * harmonic * (1.0 - 1e-12)))

    s_exp = seq.q / (seq.q - 2.0) + 2.0
    tail = (_euler_maclaurin_zeta(s_exp) - float(np.sum(k**-s_exp))) / (seq.alpha * seq.q)
    slot_sum = float(np.sum(seq.delta)) + tail
    rows.append(CheckRow("3.1", "slot sum + tail = T", slot_sum, seq.T,
                         abs(slot_sum - seq.T) <= 1e-9))

    # divergence witness: q2 partial sums grow like (q/alpha) H_K
    budget = _DIVERGENCE_BUDGET * inv_a
    cum = np.cumsum(seq.q2_terms)
    hit = np.nonzero(cum >= budget)[0]
    if hit.size:
        div_K = int(hit[0]) + 1
    else:
        # extend via H_K ~ log K + gamma: q2 ~ (q/alpha)(log K + gamma)
        target = _DIVERGENCE_BUDGET / seq.q
        div_K = int(math.ceil(math.exp(target - 0.5772156649015329)))
    rows.append(CheckRow("3.1", f"K with q^2 sum >= {_DIVERGENCE_BUDGET}/a",
                         float(div_K), float(seq.K), True, hard=False))

    return Thm31Report(rows=tuple(rows), cost_partial=cost, z2_partial=z2,
                       q2_partial=q2, slot_sum_with_tail=slot_sum,
                       divergence_K=div_K)


# ---------------------------------------------------------------------------
# Non-uniqueness excursion (drift-dominated blow-up with rare dips)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm33Config:
    q: float
    n: int
    theta: float
    epsilon: float
    K: int
    T: float
    x: np.ndarray
    delta_n: float
    t_start: float
    t_end: float

    @property
    def barrier(self):
        return 2.0 ** (-self.n - 1) * self.epsilon

    @property
    def drift_floor(self):
        return 4.0 ** self.n


def build_thm33(q, n, theta, epsilon, K, T=1.0):
    if not q > 2.0:
        raise ValueError("need q > 2")
    if not 0.0 < theta < 1.0:
        raise ValueError("need theta in (0,1)")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("need epsilon in (0,1)")
    if K < 1 or n < 0:
        raise ValueError("need K >= 1 and n >= 0")
    delta_n = 2.0 ** (-n - 1) * T
    k = np.arange(K, dtype=float)
    try:
        lower_growth = 4.0 ** (n / (q - 2.0))
    except OverflowError:
        raise RangeOverflowError(f"4^(n/(q-2)) overflows for q={q}, n={n}") from None
    # theta^k underflows to 0 for large K; the inf it gives fails below
    with np.errstate(divide="ignore", over="ignore"):
        lower_var = ((theta**k - theta ** (k + 1.0)) * theta**k * delta_n) ** -0.5
        x = np.maximum(lower_growth, lower_var)
        finite = np.all(np.isfinite(x**q))
    if not finite:
        raise RangeOverflowError(f"g(x_k) overflows for q={q}, K={K}")
    return Thm33Config(q=float(q), n=int(n), theta=float(theta),
                       epsilon=float(epsilon), K=int(K), T=float(T), x=x,
                       delta_n=delta_n, t_start=T * (1.0 - 2.0**-n),
                       t_end=T * (1.0 - 2.0 ** (-n - 1)))


def _first_passage(mu, S, a):
    """P(min_{s <= S} (mu s - W_s) <= -a) for a Brownian motion W and drift
    mu: Phi((-a - mu S)/sqrt(S)) + exp(-2 mu a) Phi((mu S - a)/sqrt(S))
    (Karatzas and Shreve 1991, 3.5.C), with Phi(y) = erfc(-y / sqrt(2)) / 2."""
    r = math.sqrt(2.0 * S)
    return 0.5 * (math.erfc((a + mu * S) / r)
                  + math.exp(-2.0 * mu * a) * math.erfc((a - mu * S) / r))


@dataclass(frozen=True)
class Thm33ExcursionReport(_Report):
    rows: tuple
    # p_lo and p_hi, under the names perfbench/workloads.py reads
    estimate: float
    dominating_estimate: float
    paper_bound: float
    final_quantiles: tuple


# Keeps its Monte Carlo name and call shape: perfbench/tracer.py wraps it by
# name and perfbench/workloads.py calls it with (cfg, n_paths, n_steps, seed=).
def simulate_thm33_excursion(cfg, n_paths=None, n_steps=None, seed=None):
    """The dip probability of the excursion process V_t = int g(b) du -
    int b dB on the geometric mesh, bracketed exactly; nothing is drawn,
    and n_paths, n_steps and seed are ignored.

    On sub-interval k, of length L_k = (theta^k - theta^(k+1)) delta_n, b
    is x_k, so in the clock s = int b^2 du V is a Brownian motion with
    drift mu_k = x_k^(q-2).  The bracket p_lo <= P(min V < -a) <= p_hi
    takes p_lo, the first-passage law on the first sub-interval (clock
    S_0 = x_0^2 L_0), and p_hi = exp(-2 mu_min a), the dip probability over
    an infinite horizon of the drift-mu_min process, which stays below V.
    With a = 2^(-n-1) eps, p_hi is at most
    the paper's bound exp(-2^n eps) iff mu_min >= 4^n: that premise is the
    hard row, to a relative 1e-12 for the rounding of x_k^(q-2).  V at the
    mesh end is Gaussian with mean sum g(x_k) L_k and variance
    sum x_k^2 L_k; its median is the soft divergence row, and
    final_quantiles are its 10/50/90 % quantiles."""
    k = np.arange(cfg.K, dtype=float)
    lengths = (cfg.theta**k - cfg.theta ** (k + 1.0)) * cfg.delta_n
    a = cfg.barrier
    mu_min = float(np.min(cfg.x ** (cfg.q - 2.0)))
    p_lo = _first_passage(cfg.x[0] ** (cfg.q - 2.0), cfg.x[0] ** 2 * lengths[0], a)
    p_hi = math.exp(-2.0 * mu_min * a)
    mean = float(np.sum(cfg.x**cfg.q * lengths))
    # the 90 % quantile of the standard normal
    spread = 1.2815515655446004 * math.sqrt(float(np.sum(cfg.x**2 * lengths)))
    rows = (
        CheckRow("3.3", f"min x_k^(q-2) >= 4^n, so P(min V < -{a:g}) <= exp(-2^n eps)",
                 mu_min, cfg.drift_floor, mu_min >= cfg.drift_floor * (1.0 - 1e-12)),
        CheckRow("3.3", "divergence witness: median V at mesh end",
                 mean, 0.0, mean > 0.0, hard=False),
    )
    return Thm33ExcursionReport(rows=rows, estimate=p_lo, dominating_estimate=p_hi,
                                paper_bound=math.exp(-(2.0**cfg.n) * cfg.epsilon),
                                final_quantiles=(mean - spread, mean, mean + spread))


# ---------------------------------------------------------------------------
# Non-stability combs (Z^k concentrated on alpha_k shrinking teeth)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thm34Config:
    q: float
    K: int
    T: float
    z: np.ndarray
    alpha: tuple  # python ints (exact ceilings)
    g_vals: np.ndarray

    def period(self, k):
        """Comb period T/alpha_k for 1-based index k."""
        return self.T / float(self.alpha[k - 1])

    def width(self, k):
        """Tooth width T/alpha_k^2 for 1-based index k."""
        a = float(self.alpha[k - 1])
        return self.T / (a * a)


def build_thm34(q, K, T):
    """z_k = max((16^k T)^{1/(q-2)}, (2^{k+1} T)^{1/q}), alpha_k = ceil(g(z_k))."""
    if not q > 2.0:
        raise ValueError("need q > 2")
    if K < 1:
        raise ValueError("need K >= 1")
    zs, alphas, gs = [], [], []
    for k in range(1, K + 1):
        try:
            grow = (16.0**k * T) ** (1.0 / (q - 2.0))
            size = (2.0 ** (k + 1) * T) ** (1.0 / q)
            z = max(grow, size)
            g = z**q
        except OverflowError:
            g = math.inf
        if not math.isfinite(g):
            raise RangeOverflowError(
                f"g(z_k) overflows at k={k}; max feasible K = {k - 1}")
        zs.append(z)
        gs.append(g)
        alphas.append(math.ceil(g))
    return Thm34Config(q=float(q), K=int(K), T=float(T),
                       z=np.array(zs), alpha=tuple(alphas), g_vals=np.array(gs))


def comb_sup_deviation(T, g, alpha):
    """Exact sup_t |int g(Z^k) du - t| for the comb: the sawtooth lag peaks
    just before the last tooth, or at the horizon when alpha = ceil(g) = 1.

    Uses the cancellation-free forms T (alpha-1)(1+eta)/alpha^2 and
    T eta / alpha with eta = alpha - g in [0, 1)."""
    a = float(alpha)
    eta = a - g
    return max(T * (a - 1.0) * (1.0 + eta) / (a * a), T * eta / a)


def thm34_deterministic(cfg):
    """Energy and drift-deviation bounds, exact for every built k."""
    rows = []
    for k in range(1, cfg.K + 1):
        z = cfg.z[k - 1]
        a = float(cfg.alpha[k - 1])
        energy = z * z * cfg.T / a
        rows.append(CheckRow("3.4", f"k={k} energy z^2 T/alpha <= 16^-k",
                             energy, 16.0**-k, energy <= 16.0**-k * (1.0 + 1e-12)))
        dev = comb_sup_deviation(cfg.T, cfg.g_vals[k - 1], cfg.alpha[k - 1])
        rows.append(CheckRow("3.4", f"k={k} sup |int g(Z) - t| <= 2^-k",
                             dev, 2.0**-k, dev <= 2.0**-k * (1.0 + 1e-12)))
    return rows


# Keeps its Monte Carlo name: perfbench/tracer.py wraps it by that name.
def thm34_mc_nu(cfg, k):
    """The hard row P[nu_k < T] <= 4^-k, computed exactly.

    P[nu_k < T] = P[sup |int Z^k dB| > 2^-k] by the exact time change: the
    stochastic integral is a Brownian motion run at speed z_k^2 on the
    teeth, so its sup has the law of sup |W| on [0, S], S = z_k^2 T / alpha_k.
    The two-sided exit law of Brownian motion (Feller 1971; Borodin and
    Salminen 2002) gives P[sup |W| > a] = 4 sum_{n>=1} (-1)^{n+1}
    Phi-bar((2n-1) a / sqrt(S)) with a = 2^-k.  By construction
    S / a^2 <= 4^-k, so a / sqrt(S) >= 2, and the sum stops at the first
    term that underflows to 0, after about ten terms."""
    z = cfg.z[k - 1]
    S = z * z * cfg.T / float(cfg.alpha[k - 1])
    a = 2.0**-k
    # 4 Phi-bar(y) = 2 erfc(y / sqrt(2))
    x = a / math.sqrt(2.0 * S)
    p, n = 0.0, 0
    while (term := math.erfc((2 * n + 1) * x)) > 0.0:
        p += -term if n % 2 else term
        n += 1
    p *= 2.0
    bound = 4.0**-k
    return CheckRow("3.4", f"k={k} P[nu_k < T] <= 4^-k", p, bound, p <= bound)


SWEEP_ALPHA_CAP = 1 << 22
WIDTH_RESOLUTION = 1e-12


@dataclass(frozen=True)
class Thm34JointStats:
    """Per-path statistics from the joint coarse-grid channel.

    The comb integrals M^k have exact joint Gaussian increments over the
    coarse intervals: variances are z_k^2 * (tooth measure per interval,
    closed form) and cross-covariances z_j z_k * |teeth_j meet teeth_k|
    come from a sweep of the coarser comb.  Pairs whose sweep is infeasible
    (alpha_j too large) or whose teeth sit below float resolution carry a
    documented correlation bound instead; those bounds are ~1e-5 for the
    default configuration, far below the sampling noise of every asserted
    check.  A diagonal covariance (every cross pair skipped, as for q = 3)
    has one non-zero root entry per row, and the increments use only the
    root columns that are not identically zero.  The discrete stopping time
    nu rounds down to the last pre-violation knot, so stopped integrals
    respect the 2^-k barriers pathwise.  A stopped path is constant after
    nu, so its sup and min are taken over the knots i <= nu; an unstopped
    path (nu_index == n_coarse) reduces its whole row.
    """

    k_max: int
    n_paths: int
    nu_index: np.ndarray      # (n_paths,)
    nu_k_ok: np.ndarray       # (n_paths, k_max)
    sup_dist: np.ndarray      # (n_paths, k_max) sup_t |y^k - t^nu|
    mono_min: np.ndarray      # (n_paths, k_max-1) min_t (y^k - y^(k-1))
    skipped_pairs: tuple


def _joint_covariance(cfg, k_max, n_coarse):
    edges = np.linspace(0.0, cfg.T, n_coarse + 1)
    cov = np.zeros((n_coarse, k_max, k_max))
    for k in range(1, k_max + 1):
        meas = _kernels.comb_measure(edges, cfg.period(k), cfg.width(k))
        cov[:, k - 1, k - 1] = cfg.z[k - 1] ** 2 * np.diff(meas)
    skipped = []
    bin_width = cfg.T / n_coarse
    for j in range(1, k_max + 1):
        for k in range(j + 1, k_max + 1):
            wj, wk = cfg.width(j), cfg.width(k)
            feasible = (cfg.alpha[j - 1] <= SWEEP_ALPHA_CAP
                        and wk >= WIDTH_RESOLUTION * cfg.T
                        and wj < bin_width)
            if feasible:
                ov = _kernels.comb_cross_overlap(
                    int(cfg.alpha[j - 1]), cfg.period(j), wj,
                    cfg.period(k), wk, edges)
                c = cfg.z[j - 1] * cfg.z[k - 1] * ov
                cov[:, j - 1, k - 1] = c
                cov[:, k - 1, j - 1] = c
            else:
                # |teeth_j ^ teeth_k| <= alpha_j w_k (w_j alpha_k / T + 1)
                ov_bound = cfg.alpha[j - 1] * wk * (wj * cfg.alpha[k - 1] / cfg.T + 1.0)
                tot_j = cfg.z[j - 1] ** 2 * cfg.T / float(cfg.alpha[j - 1])
                tot_k = cfg.z[k - 1] ** 2 * cfg.T / float(cfg.alpha[k - 1])
                rho = cfg.z[j - 1] * cfg.z[k - 1] * ov_bound / math.sqrt(tot_j * tot_k)
                skipped.append((j, k, float(rho)))
    return edges, cov, tuple(skipped)


def _comb_drift_integral(cfg, k, t):
    """int_0^t g(Z^k) du = g(z_k) * (tooth measure up to t), closed form."""
    return cfg.g_vals[k - 1] * _kernels.comb_measure(t, cfg.period(k), cfg.width(k))


def _joint_increments(roots, xi, dm):
    """dm[k] = sum of roots[:, k, l] * xi[:, :, l] over l ascending, taken
    over the root columns that are not identically zero.  A skipped column
    would only add exact zeros, so the sum is the full one, and a diagonal
    covariance costs one product per component.  dm starts zeroed."""
    for k in range(roots.shape[1]):
        cols = [l for l in range(roots.shape[2]) if np.any(roots[:, k, l])]
        for n, l in enumerate(cols):
            if n == 0:
                np.multiply(roots[:, k, l], xi[:, :, l], out=dm[k])
            else:
                dm[k] += roots[:, k, l] * xi[:, :, l]


def _joint_block(k_max, n_coarse):
    """Paths per joint-channel block: as many as _JOINT_BLOCK_BYTES holds at
    8 k_max (n_coarse + 1) bytes per path, and at least one."""
    return max(1, _JOINT_BLOCK_BYTES // (8 * k_max * (n_coarse + 1)))


def thm34_joint_paths(cfg, k_max, n_paths, seed, n_coarse=4096):
    """Simulate the joint law of (M^1..M^k_max) at the coarse knots and
    reduce each path to the statistics the pathwise checks need.

    Each block is held component-major, m[k, b, knot], so every reduction
    runs along a contiguous row; _joint_increments fills it from the root
    columns that are not identically zero.  A component violates its barrier
    iff its row max exceeds 2^-k or its row min falls below -2^-k; the
    first violating knot, and with it nu, is searched for only on rows
    that violate.  Unstopped rows reduce their whole row; the dead knots
    past nu are masked (inf for the monotonicity minimum, 0 for the
    distance) on the stopped rows only."""
    if n_coarse < 1:
        raise ValueError(f"need n_coarse >= 1, got {n_coarse}")
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    k_max = min(k_max, cfg.K)
    edges, cov, skipped = _joint_covariance(cfg, k_max, n_coarse)
    # symmetric square roots per interval (eigh handles zero-teeth intervals)
    evals, evecs = np.linalg.eigh(cov)
    roots = evecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]

    nb = n_coarse
    thresholds = 2.0 ** -np.arange(1, k_max + 1)[:, None]
    drift_at = np.stack([_comb_drift_integral(cfg, k, edges)
                         for k in range(1, k_max + 1)])[:, None, :]

    nu_index = np.empty(n_paths, dtype=np.int64)
    nu_k_ok = np.empty((n_paths, k_max), dtype=bool)
    sup_dist = np.empty((n_paths, k_max))
    mono_min = np.empty((n_paths, max(k_max - 1, 0)))
    knots = np.arange(nb + 1)

    def draw(start, stop):
        return path_normals(seed, 3, start, stop, (nb, k_max))

    def block(start, stop, xi):
        m = np.zeros((k_max, stop - start, nb + 1))
        _joint_increments(roots, xi, m[:, :, 1:])
        np.cumsum(m, axis=2, out=m)

        ok = (np.max(m, axis=2) <= thresholds) & (np.min(m, axis=2) >= -thresholds)
        nu_k_ok[start:stop] = ok.T
        stopped = np.flatnonzero(~np.all(ok, axis=0))
        first = np.argmax(np.any(np.abs(m[:, stopped]) > thresholds[:, :, None],
                                 axis=0), axis=1)
        nu_stop = np.maximum(first - 1, 0)
        nu_index[start:stop] = nb
        nu_index[start + stopped] = nu_stop
        dead = knots > nu_stop[:, None]

        # m becomes y = drift - m, then y - t; knots past nu are dead
        y = np.subtract(drift_at, m, out=m)
        if k_max > 1:
            gap = np.diff(y, axis=0)
            mono = np.min(gap, axis=2)
            gap = gap[:, stopped]
            gap[:, dead] = np.inf
            mono[:, stopped] = np.min(gap, axis=2)
            mono_min[start:stop] = mono.T
            del gap
        y -= edges
        dist = np.maximum(np.max(y, axis=2), -np.min(y, axis=2))
        y = y[:, stopped]
        y[:, dead] = 0.0
        dist[:, stopped] = np.max(np.abs(y, out=y), axis=2)
        sup_dist[start:stop] = dist.T

    map_path_blocks(draw, block, n_paths, _joint_block(k_max, nb))
    return Thm34JointStats(k_max=k_max, n_paths=int(n_paths), nu_index=nu_index,
                           nu_k_ok=nu_k_ok, sup_dist=sup_dist,
                           mono_min=mono_min, skipped_pairs=skipped)


def thm34_pathwise_checks(joint):
    """Uniform closeness of y^k to t ^ nu on the good event, the pathwise
    monotonicity of the shifted solutions, and the survival probability."""
    rows = []
    p_nu_T = float(np.mean(np.all(joint.nu_k_ok, axis=1)))
    se = math.sqrt(max(p_nu_T * (1.0 - p_nu_T), 1e-12) / joint.n_paths)
    rows.append(CheckRow("3.4", "P[nu = T] >= 2/3 - 3SE", p_nu_T,
                         2.0 / 3.0 - 3.0 * se, p_nu_T >= 2.0 / 3.0 - 3.0 * se))
    for k in range(1, joint.k_max + 1):
        good = np.all(joint.nu_k_ok[:, :k], axis=1)
        worst = float(np.max(joint.sup_dist[good, k - 1])) if np.any(good) else 0.0
        rows.append(CheckRow("3.4", f"k={k} sup|y^k - t^nu| <= 2*2^-k on good paths",
                             worst, 2.0 * 2.0**-k,
                             worst <= 2.0 * 2.0**-k + 1e-12))
        if k >= 2:
            # Y^k = y^k - 8 + sum_{j<=k} 4*2^-(j-1): the increment carries
            # the offset 4*2^-(k-1)
            worst_mono = float(np.min(joint.mono_min[:, k - 2])) + 4.0 * 2.0 ** -(k - 1)
            rows.append(CheckRow("3.4", f"k={k} pathwise Y^k >= Y^(k-1)",
                                 worst_mono, 0.0, worst_mono >= -1e-12))
    return rows, p_nu_T


def _witness_row(joint):
    """The limit t ^ nu of the comb solutions has zero quadratic variation
    and drift 1 before nu, which no solution can match since g(0) = 0 (exact,
    not sampled); the row checks that Y^k -> t ^ nu uniformly on good paths."""
    k = joint.k_max
    # Y^k = y^k - 8*2^-k and |y^k - t^nu| <= 2*2^-k on good paths
    dist = joint.sup_dist[:, k - 1] + 8.0 * 2.0**-k
    sup_dist = float(np.max(dist, where=np.all(joint.nu_k_ok, axis=1), initial=0.0))
    return CheckRow("3.4", f"sup |Y^{k} - t^nu| <= 10*2^-{k} on good paths",
                    sup_dist, 10.0 * 2.0**-k, sup_dist <= 10.0 * 2.0**-k + 1e-12)


@dataclass(frozen=True)
class Thm34Report(_Report):
    rows: tuple
    p_nu_T: float
    skipped_pairs: tuple


def thm34_checks(cfg, n_paths, n_steps, seed):
    """Deterministic bounds and exact dip probabilities for every built k,
    then one joint channel run's pathwise and witness rows, k <= PATH_K_MAX."""
    _check_n_paths(n_paths)
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    rows = list(thm34_deterministic(cfg))
    rows.extend(thm34_mc_nu(cfg, k) for k in range(1, cfg.K + 1))
    joint = thm34_joint_paths(cfg, PATH_K_MAX, n_paths, seed, n_coarse=n_steps)
    path_rows, p_nu = thm34_pathwise_checks(joint)
    rows.extend(path_rows)
    rows.append(_witness_row(joint))
    return Thm34Report(rows=tuple(rows), p_nu_T=p_nu,
                       skipped_pairs=joint.skipped_pairs)


@dataclass(frozen=True)
class WitnessReport(_Report):
    rows: tuple


# Kept only because perfbench/workloads.py calls it with this signature and
# perfbench/tracer.py wraps it by name; thm34_checks reports the same row.
def limit_not_solution_witness(cfg, seed, n_paths=256, n_coarse=4096):
    """The witness row of thm34_checks(cfg, n_paths, n_coarse, seed)."""
    _check_n_paths(n_paths)
    joint = thm34_joint_paths(cfg, PATH_K_MAX, n_paths, seed, n_coarse=n_coarse)
    return WitnessReport(rows=(_witness_row(joint),))
