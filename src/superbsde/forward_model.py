"""Forward diffusion dX = b(s, X) ds + sigma dB, its variational flow,
Euler-Maruyama simulation with optional Girsanov tilting, and the
package's one RNG layout.

The model is scalar (a 1-D state, one Brownian driver, constant
sigma > 0); the drift carries its own spatial derivative so the flow
d(grad X) = b_x(X) grad X ds integrates with an exact exponential per
step.

Every Monte Carlo normal in the package comes from `path_normals`: path p
of the stream family `salt` reads the counter-based Philox stream with key
(seed << 64) + (salt << 48) + p, starting at counter 0 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  A path's numbers
depend only on (seed, salt, p), so results are reproducible bit-for-bit
and do not depend on how paths are split into batches or workers.  Salts:
0 the Brownian increments of `simulate_paths`, 1 and 2 the two Thm 3.3
channels, 3 the Thm 3.4 joint channel, 10 + k the Thm 3.4 nu_k channel.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels
from .errors import NotGaussianError, SimulationDivergedError


class Drift:
    """Drift b(t, x) with spatial derivative b_x(t, x), both vectorized."""

    zero = False

    def __call__(self, t, x):
        raise NotImplementedError

    def dx(self, t, x):
        raise NotImplementedError

    def sup_dx(self):
        """Exact sup |b_x| when known in closed form, else None."""
        return None


class ZeroDrift(Drift):
    zero = True

    def __call__(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def dx(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def sup_dx(self):
        return 0.0

    def __repr__(self):
        return "ZeroDrift()"


class LinearDrift(Drift):
    """b(x) = beta * x."""

    def __init__(self, beta):
        self.beta = float(beta)

    def __call__(self, t, x):
        return self.beta * np.asarray(x, dtype=float)

    def dx(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.beta)

    def sup_dx(self):
        return abs(self.beta)

    def __repr__(self):
        return f"LinearDrift(beta={self.beta})"


class TanhDrift(Drift):
    """b(x) = scale * tanh(x); b_x = scale * (1 - tanh(x)^2), sup |b_x| = |scale|."""

    def __init__(self, scale):
        self.scale = float(scale)

    def __call__(self, t, x):
        return self.scale * np.tanh(np.asarray(x, dtype=float))

    def dx(self, t, x):
        th = np.tanh(np.asarray(x, dtype=float))
        return self.scale * (1.0 - th * th)

    def sup_dx(self):
        return abs(self.scale)

    def __repr__(self):
        return f"TanhDrift(scale={self.scale})"


class CustomDrift(Drift):
    def __init__(self, fn, fn_dx, name="custom"):
        self.fn = fn
        self.fn_dx = fn_dx
        self.name = name

    def __call__(self, t, x):
        return np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)

    def dx(self, t, x):
        return np.asarray(self.fn_dx(t, np.asarray(x, dtype=float)), dtype=float)

    def __repr__(self):
        return f"CustomDrift({self.name})"


class ForwardModel:
    """Scalar diffusion with constant sigma on the horizon [0, T]."""

    def __init__(self, drift, sigma, horizon, b_x_bound=None, lam=None):
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not horizon > 0.0:
            raise ValueError("horizon must be positive")
        self.drift = drift
        self.sigma = float(sigma)
        self.horizon = float(horizon)
        if b_x_bound is None:
            b_x_bound = drift.sup_dx()
        if b_x_bound is None:
            b_x_bound = _probe_sup_dx(drift, horizon)
        self.b_x_bound = float(b_x_bound)
        # in the scalar case the structural constant lambda of the
        # drift/volatility compatibility inequality reduces to sup |b_x|
        self.lam = float(lam) if lam is not None else self.b_x_bound

    def __repr__(self):
        return (f"ForwardModel({self.drift!r}, sigma={self.sigma}, "
                f"T={self.horizon}, lambda={self.lam})")


def _probe_sup_dx(drift, horizon, n=512):
    rng = Generator(Philox(key=0))
    ts = rng.uniform(0.0, horizon, n)
    xs = rng.uniform(-20.0, 20.0, n)
    return float(np.max(np.abs(drift.dx(ts, xs))))


@dataclass
class PathBundle:
    """Simulated paths, flows and the Brownian increments that drove them.

    When a tilt was applied, `noise` holds the Q-Brownian increments (the
    tilted simulation is the Q-law; no density reweighting is involved).
    """

    times: np.ndarray
    x_paths: np.ndarray
    flow_paths: np.ndarray
    noise: np.ndarray
    seed: int
    x0: float
    t0: float
    tilted: bool = False

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def to_csv(self, path):
        """One row per (path, step): path,t,x,flow,dB."""
        # Python floats from tolist(), one path at a time (see PdeSolution.to_csv)
        times = self.times.tolist()
        with open(path, "w", newline="") as fh:
            fh.write("path,t,x,flow,dB\n")
            for p in range(self.x_paths.shape[0]):
                dbs = [0.0] + self.noise[p].tolist()
                for t, x, flow, db in zip(times, self.x_paths[p].tolist(),
                                          self.flow_paths[p].tolist(), dbs):
                    fh.write(f"{p},{t!r},{x!r},{flow!r},{db!r}\n")


_KEY_LIMIT = 1 << 128
_WORD = (1 << 64) - 1


def path_normals(seed, salt, start, stop, shape=()):
    """Standard normals of shape (stop - start, *shape) for paths
    start..stop-1.  Row i equals Generator(Philox(key=k)).standard_normal(shape)
    with k = (seed << 64) + (salt << 48) + start + i.

    One Philox is re-keyed per path through its public state setter, which
    also resets the counter and the output buffer; constructing a Philox
    per path costs several times more.  Raises ValueError for a key
    outside [0, 2**128), as Philox does.
    """
    n = stop - start
    first = (int(seed) << 64) + (int(salt) << 48) + int(start)
    if not (0 <= first and first + n <= _KEY_LIMIT):
        raise ValueError(f"Philox key outside [0, 2**128) for seed {seed}, "
                         f"salt {salt}, paths {start}..{stop - 1}")
    out = np.empty((n, *shape))
    rows = out.reshape(n, math.prod(shape))
    bits = Philox(key=first)
    gen = Generator(bits)
    fresh = bits.state  # counter 0, empty buffer
    key = fresh["state"]["key"]
    for i in range(n):
        k = first + i
        key[0], key[1] = k & _WORD, k >> 64
        bits.state = fresh
        gen.standard_normal(out=rows[i])
    return out


def draw_increments(seed, n_paths, n_steps, dt):
    """Brownian increments of `simulate_paths`: salt 0 of `path_normals`."""
    dw = path_normals(seed, 0, 0, n_paths, (n_steps,))
    dw *= np.sqrt(dt)
    return dw


def simulate_paths(model, x0, t0, n_paths, n_steps, seed, tilt=None):
    """Euler-Maruyama paths of the (optionally tilted) diffusion.

    With a tilt q the drift becomes b + sigma*q and the stored increments
    are the Q-Brownian ones.  The variational flow integrates alongside
    with the exact per-step exponential exp(b_x dt).
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if not t0 < model.horizon:
        raise ValueError("t0 must precede the horizon")
    dt = (model.horizon - t0) / n_steps
    dw = draw_increments(seed, n_paths, n_steps, dt)
    times = t0 + dt * np.arange(n_steps + 1)

    rate = None if tilt is None else tilt.rate
    x, flow, bad = _kernels.em_paths(float(x0), float(t0), dt, dw, model.sigma,
                                     model.drift, model.drift.dx, rate)
    if bad >= 0:
        raise SimulationDivergedError(bad)
    return PathBundle(times=times, x_paths=x, flow_paths=flow, noise=dw,
                      seed=int(seed), x0=float(x0), t0=float(t0),
                      tilted=tilt is not None)


@dataclass(frozen=True)
class CompatReport:
    """Outcome of probing the drift/volatility compatibility inequality."""

    lam: float
    measured_sup: float
    worst_t: float
    worst_x: float
    passed: bool


def check_compat_417(model, probe_count, seed=0):
    """Probe |eta^T sigma sigma^T b_x^T eta| <= lambda |eta^T sigma|^2; in the
    scalar case this is sup |b_x| <= lambda."""
    if probe_count < 1:
        raise ValueError("need probe_count >= 1")
    rng = Generator(Philox(key=(int(seed) << 64) + 0x417))
    ts = rng.uniform(0.0, model.horizon, probe_count)
    xs = rng.uniform(-20.0, 20.0, probe_count)
    vals = np.abs(model.drift.dx(ts, xs))
    worst = int(np.argmax(vals))
    measured = float(vals[worst])
    return CompatReport(lam=model.lam, measured_sup=measured,
                        worst_t=float(ts[worst]), worst_x=float(xs[worst]),
                        passed=measured <= model.lam + 1e-12)


def gaussian_terminal_law(model, x0, t0):
    """Exact (mean, variance) of X_T for the driftless model."""
    if not model.drift.zero:
        raise NotGaussianError("terminal law is Gaussian only for zero drift")
    return float(x0), model.sigma**2 * (model.horizon - t0)
