"""Forward diffusion dX = b(s, X) ds + sigma dB, Euler-Maruyama
simulation with optional Girsanov tilting, the exact law of that Euler
scheme where it is Gaussian, and the package's one RNG layout.

The model is scalar (a 1-D state, one Brownian driver, constant
sigma > 0); each drift kind gives the exact sup |b_x|, which sets the
compatibility constant lambda.

Every Monte Carlo normal in the package comes from `path_normals`: path p
of the stream family `salt` reads the counter-based Philox stream with key
(seed << 64) + (salt << 48) + p, starting at counter 0 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  A path's numbers
depend only on (seed, salt, p), so results are reproducible bit-for-bit
and do not depend on how paths are split into batches or workers.  Salts:
0 the Brownian increments of `simulate_paths` and of the dual Monte Carlo
pass, 3 the Thm 3.4 joint channel; 1 and 2 are unused since Thm 3.3 is exact.

`map_path_blocks` overlaps a channel's path blocks on the CPUs this
process may use (`WORKERS`): the calling thread draws each block's
normals in block order while a thread pool runs the rest of earlier
blocks; numpy's Philox fill and the block reductions release the GIL.
Every generator is built and read on the calling thread, so code that
wraps or counts them sees one thread.  Each block writes only its own
rows of preallocated outputs, so results are bit-identical for every
worker count and block size.  Memory is the blocks in flight (at most
`WORKERS`, the one being drawn included) times the block size; the Thm 3.4
joint channel sizes its blocks by bytes (`counterexamples._joint_block`),
about 1.6 MB per array, whatever its grid.

`simulate_paths` stores every knot of x, and reads a tilt's pointwise
`rate(t_k, X_k)`.  The dual pass (`dual_mc.evaluate_controls`) draws the
same salt-0 increments one block of paths at a time through
`draw_increments(..., start=)` and runs the same Euler loop
(`_kernels.em_paths`) on each control's per-pass knot plan (g'(Z) rows at
the knots for the feedback control) with the penalty accumulated in the
step, holding only X_T and the per-path penalty; because path p's numbers
depend only on (seed, p), its results do not depend on the block size.
Every dual control of one pass reads that one salt-0 draw of `seed`.
Neither evaluates a drift flagged `zero`.  `euler_gaussian_law` gives the
mean and variance of that scheme's X_T for a zero or linear drift under a
tilt that does not depend on the state, which `dual_mc.duality_gap` uses
in place of paths.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels
from .errors import SimulationDivergedError


class Drift:
    """Drift b(t, x), vectorized, and the exact sup |b_x| over [0, T] x R,
    which every kind must give."""

    zero = False

    def __call__(self, t, x):
        raise NotImplementedError

    def sup_dx(self):
        raise NotImplementedError


class ZeroDrift(Drift):
    zero = True

    def __call__(self, t, x):
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

    def sup_dx(self):
        return abs(self.scale)

    def __repr__(self):
        return f"TanhDrift(scale={self.scale})"


class ForwardModel:
    """Scalar diffusion with constant sigma on the horizon [0, T].

    lam = sup |b_x|, read off the drift: in the scalar case it is the
    smallest constant of the compatibility inequality |b_x| <= lambda that
    the Markovian existence result needs, so it holds by construction.
    """

    def __init__(self, drift, sigma, horizon):
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {horizon}")
        self.drift = drift
        self.sigma = float(sigma)
        self.horizon = float(horizon)
        self.lam = float(drift.sup_dx())

    def __repr__(self):
        return (f"ForwardModel({self.drift!r}, sigma={self.sigma}, "
                f"T={self.horizon}, lambda={self.lam})")


@dataclass
class PathBundle:
    """Simulated paths and the Brownian increments that drove them.

    When a tilt was applied, `noise` holds the Q-Brownian increments (the
    tilted simulation is the Q-law; no density reweighting is involved).
    `dt` is the Euler step the paths were simulated with; a difference of
    two `times` can differ from it in the last bits.
    """

    times: np.ndarray
    x_paths: np.ndarray
    noise: np.ndarray
    seed: int
    x0: float
    t0: float
    dt: float
    tilted: bool = False

    def to_csv(self, path):
        """One row per (path, step): path,t,x,dB.

        Each path is one string, built as `PdeSolution.to_csv` builds a
        level: t and the separators once per call, the path label once
        per path, x and dB by slice assignment; memory holds one path,
        never the whole file."""
        # Python floats from tolist(); a row reads
        # p "," t "," x "," dB "\n", and dB is 0.0 at t_0
        n = self.times.size
        parts = [","] * (6 * n)
        parts[1::6] = [t + "," for t in map(repr, self.times.tolist())]
        parts[4] = repr(0.0)
        parts[5::6] = ["\n"] * n
        with open(path, "w", newline="") as fh:
            fh.write("path,t,x,dB\n")
            for p in range(self.x_paths.shape[0]):
                parts[0::6] = [f"{p},"] * n
                parts[2::6] = map(repr, self.x_paths[p].tolist())
                parts[10::6] = map(repr, self.noise[p].tolist())
                fh.write("".join(parts))


_KEY_LIMIT = 1 << 128
_WORD = (1 << 64) - 1


def path_normals(seed, salt, start, stop, shape=()):
    """Standard normals of shape (stop - start, *shape) for paths
    start..stop-1.  Row i equals Generator(Philox(key=k)).standard_normal(shape)
    with k = (seed << 64) + (salt << 48) + start + i.

    One Philox is re-keyed per path through its public state setter, which
    also resets the counter and the output buffer; constructing a Philox
    per path costs several times more, and a state dict of Python ints sets
    faster than the numpy-array dict `bits.state` returns.  The one Philox
    is built from a fixed seed: the first re-key overwrites its whole
    state, and a seedless construction would read 128 bits of OS entropy,
    which releases the GIL.  Raises ValueError for a key outside
    [0, 2**128), as Philox does.
    """
    n = stop - start
    first = (int(seed) << 64) + (int(salt) << 48) + int(start)
    if not (0 <= first and first + n <= _KEY_LIMIT):
        raise ValueError(f"Philox key outside [0, 2**128) for seed {seed}, "
                         f"salt {salt}, paths {start}..{stop - 1}")
    out = np.empty((n, *shape))
    rows = out.reshape(n, math.prod(shape))
    bits = Philox(0)
    gen = Generator(bits)
    key = [0, 0]
    fresh = {"bit_generator": "Philox",  # counter 0, empty buffer
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in range(n):
        k = first + i
        key[0], key[1] = k & _WORD, k >> 64
        bits.state = fresh
        gen.standard_normal(out=rows[i])
    return out


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# worker threads of map_path_blocks: the CPUs this process may run on
WORKERS = _usable_cpus()


@functools.cache
def _pool(workers):
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(workers, thread_name_prefix="path-block")


def map_path_blocks(draw, fn, n_paths, block):
    """Call fn(start, stop, draw(start, stop)) for the blocks [start, stop)
    of `block` paths that cover 0..n_paths-1, and return when every block
    is done.

    draw runs on the calling thread, one block after another.  With more
    than one block and more than one worker, fn runs on a pool of WORKERS
    threads, built on first use (so importing the package starts no
    threads), while later blocks are drawn; a block is drawn only once
    fewer than WORKERS blocks are in flight.  Otherwise every block runs
    inline, in order.  fn must write only its own block's rows of the
    caller's outputs.  Once every started block has finished, a failing
    draw's exception is re-raised, else that of the first failing fn in
    block order.  Raises ValueError for block < 1.
    """
    if block < 1:
        raise ValueError(f"need block >= 1, got {block}")
    bounds = [(start, min(start + block, n_paths))
              for start in range(0, n_paths, block)]
    if WORKERS == 1 or len(bounds) == 1:
        for start, stop in bounds:
            fn(start, stop, draw(start, stop))
        return
    pool = _pool(WORKERS)
    futures = []
    try:
        for start, stop in bounds:
            if len(futures) >= WORKERS:
                futures[-WORKERS].exception()  # waits for that block
            futures.append(pool.submit(fn, start, stop, draw(start, stop)))
    finally:
        for future in futures:
            future.exception()
    for future in futures:
        future.result()


def draw_increments(seed, n_paths, n_steps, dt, start=0):
    """Brownian increments of paths start..start+n_paths-1, path-major
    (n_paths, n_steps): salt 0 of `path_normals`, scaled by sqrt(dt)."""
    dw = path_normals(seed, 0, start, start + n_paths, (n_steps,))
    dw *= np.sqrt(dt)
    return dw


def time_step(model, t0, n_steps):
    """Step dt of the uniform n_steps Euler grid from t0 to the horizon."""
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if not t0 < model.horizon:
        raise ValueError("t0 must precede the horizon")
    return (model.horizon - t0) / n_steps


def simulate_paths(model, x0, t0, n_paths, n_steps, seed, tilt=None):
    """Euler-Maruyama paths of the (optionally tilted) diffusion.

    With a tilt q the drift becomes b + sigma*q, with q = tilt.rate(t_k, X_k)
    read pointwise at each knot, and the stored increments are the
    Q-Brownian ones.  Every knot of x is stored; the dual Monte Carlo pass
    (`dual_mc.evaluate_controls`) runs the same Euler loop over blocks of
    paths and keeps only X_T and the penalty.
    """
    dt = time_step(model, t0, n_steps)
    dw = draw_increments(seed, n_paths, n_steps, dt)
    times = t0 + dt * np.arange(n_steps + 1)

    t0 = float(t0)
    control = None
    if tilt is not None:
        def control(k, x):
            return tilt.rate(t0 + k * dt, x), None
    _, _, x, bad = _kernels.em_paths(float(x0), t0, dt, dw.T, model.sigma,
                                     model.drift, store=True, control=control)
    if bad >= 0:
        raise SimulationDivergedError(bad)
    return PathBundle(times=times, x_paths=x, noise=dw, seed=int(seed),
                      x0=float(x0), t0=float(t0), dt=dt, tilted=tilt is not None)


def euler_gaussian_law(model, x0, dt, q):
    """Mean and variance of the Euler X_T that `em_paths` simulates from x0
    with the tilt q[k] at knot k (one number per knot, state-independent),
    or None unless the drift is zero or linear.

    With b(x) = beta x (beta = 0 for a zero drift) one step is
    X_{k+1} = a X_k + sigma q_k dt + sigma dB_k with a = 1 + beta dt, so
    X_T is Gaussian with mean a^n x0 + sigma dt sum_k a^(n-1-k) q_k and
    variance sigma^2 dt sum_{j<n} a^(2j): the law of the scheme itself, not
    of the diffusion.  For a zero drift that is x0 + sigma sum_k q_k dt and
    sigma^2 n dt.  A law that overflows is None too."""
    if model.drift.zero:
        a = 1.0
    elif isinstance(model.drift, LinearDrift):
        a = 1.0 + model.drift.beta * dt
    else:
        return None
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.float64(a) ** np.arange(q.size + 1)  # a^0 .. a^n
        head = powers[:-1]
        mean = powers[-1] * x0 + model.sigma * dt * float(head[::-1] @ q)
        var = model.sigma**2 * dt * float(head @ head)
    if not (math.isfinite(mean) and math.isfinite(var)):
        return None
    return mean, var
