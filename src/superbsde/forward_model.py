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
and do not depend on how paths are split into blocks.  Salts:
0 the Brownian increments of `simulate_paths` and of the dual Monte Carlo
pass, 3 the Thm 3.4 joint channel; 1 and 2 are unused since Thm 3.3 is exact.

The package starts no threads.  `map_path_blocks` runs a channel's blocks
of paths one after another on the calling thread, and `path_normals(...,
out=)` fills a block's normals into a buffer the caller reuses for every
block; the Thm 3.4 joint channel sizes that buffer by bytes
(`counterexamples._joint_block`), whatever its grid, so its memory is one
block.  The path loops of the other channels (the dual pass, the BSDE
residual, the paths dumps) walk blocks of BLOCK_PATHS paths.  Each block
writes only its own rows of preallocated outputs, so results are
bit-identical for every block size.

What is stored and what is derived: a `PathBundle` stores its seed and
what the Euler loop needs (x0, t0, dt, the model and the tilt), neither
the increments nor the x knots.  Each reader draws the salt-0 increments
of one block of BLOCK_PATHS paths where it reads them
(`PathBundle.increments`, one step-major buffer reused for every block).
`simulate_paths` runs `_kernels.em_paths` once, block by block, without
storing knots, to raise SimulationDivergedError, and `PathBundle.knots`
replays the loop for a block of paths when a reader asks for their knots;
the draw and `em_paths` are elementwise along the paths, so the replay
gives the bits of the first run.  A tilt is read pointwise,
`rate(t_k, X_k)`.  The dual pass (`dual_mc.evaluate_controls`) draws the
same salt-0 increments one block of paths at a time through
`draw_increments(..., start=, out=)` and runs the same Euler loop on each
control's per-pass knot plan (g'(Z) rows at the knots for the feedback
control) with the penalty accumulated in the step, holding only X_T and
the per-path penalty; because path p's numbers depend only on (seed, p),
its results do not depend on the block size.  Every dual control of one
pass reads that one salt-0 draw of `seed`.  Neither evaluates a drift
flagged `zero`.  `euler_gaussian_law` gives the mean and variance of that
scheme's X_T for a zero or linear drift under a tilt that does not
depend on the state, which `dual_mc.duality_gap` uses in place of paths.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels
from .errors import SimulationDivergedError

# paths per block of the dual pass, the BSDE residual and the paths dumps;
# results do not depend on it
BLOCK_PATHS = 4096
# paths per path-major scratch through which `draw_increments(..., out=)`
# fills a step-major buffer; results do not depend on it
SCRATCH_PATHS = 256


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
    """The seed of a bundle of Euler-Maruyama paths and what the Euler loop
    needs to replay them.

    It stores no array: `increments` draws the salt-0 increments of a
    block of paths from `seed` (`draw_increments`), and `knots` derives
    the x knots of a block by running `_kernels.em_paths` on them, bit for
    bit the knots `simulate_paths` ran.  With a tilt, the increments are
    the Q-Brownian ones (the tilted simulation is the Q-law; no density
    reweighting is involved).  `dt` is the Euler step the paths were
    simulated with; a difference of two `times` can differ from it in the
    last bits.
    """

    n_paths: int
    n_steps: int
    seed: int
    x0: float
    t0: float
    dt: float
    model: ForwardModel
    tilt: object = None

    @property
    def tilted(self):
        return self.tilt is not None

    @property
    def times(self):
        """The knot times t0 + k dt, k = 0..n_steps."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def increments(self, start=0, stop=None):
        """Increments of paths start..stop-1 (all paths by default),
        step-major (n_steps, stop - start): `draw_increments` of those
        paths.  Paths outside the bundle raise ValueError."""
        stop = self.n_paths if stop is None else stop
        if not 0 <= start <= stop <= self.n_paths:
            raise ValueError(f"paths {start}..{stop - 1} are not all in a bundle of "
                             f"{self.n_paths}")
        return draw_increments(self.seed, stop - start, self.n_steps, self.dt,
                               start=start)

    def map_blocks(self, fn):
        """fn(start, stop, dw) for the blocks of BLOCK_PATHS paths, in
        order, with dw the block's step-major increments in one buffer
        that every block reuses."""
        block = max(1, min(BLOCK_PATHS, self.n_paths))
        buf = np.empty((self.n_steps, block))

        def draw(start, stop):
            return draw_increments(self.seed, stop - start, self.n_steps, self.dt,
                                   start=start, out=buf[:, :stop - start])
        map_path_blocks(draw, fn, self.n_paths, block)

    def knots(self, start=0, stop=None, dw=None):
        """x knots of paths start..stop-1 (all paths by default), path-major
        (stop - start, n_steps + 1): `em_paths` replayed on their
        increments, drawn here unless the caller passes them as dw.
        Raises SimulationDivergedError as `simulate_paths` does."""
        if dw is None:
            dw = self.increments(start, stop)
        x, bad = self._euler(dw, store=True)
        if bad >= 0:
            raise SimulationDivergedError(bad)
        return x

    def _euler(self, dw, store):
        """`em_paths` on the step-major increments dw: the knots (None
        without `store`) and the first diverged step (-1 if none)."""
        control = None
        if self.tilt is not None:
            rate, t0, dt = self.tilt.rate, self.t0, self.dt

            def control(k, x):
                return rate(t0 + k * dt, x), None
        _, _, x, bad = _kernels.em_paths(self.x0, self.t0, self.dt, dw,
                                         self.model.sigma, self.model.drift,
                                         store=store, control=control)
        return x, bad

    def to_npy(self, path):
        """x and dB at every knot as a NumPy .npy file of little-endian
        float64, shaped (n_paths, n_steps + 1, 2): [p, k] holds x_k and the
        increment dB_k that led to it, 0.0 at t0, the x,dB columns of
        `to_csv` in its row order.  The header goes first and each block of
        BLOCK_PATHS paths is written as soon as it is drawn and its knots
        replayed, so memory holds one block, never the whole file."""
        n = self.n_steps + 1
        header = {"descr": "<f8", "fortran_order": False, "shape": (self.n_paths, n, 2)}
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)

            def write(start, stop, dw):
                rec = np.empty((stop - start, n, 2), dtype="<f8")
                rec[..., 0] = self.knots(dw=dw)
                rec[:, 0, 1] = 0.0
                rec[:, 1:, 1] = dw.T
                fh.write(rec.tobytes())
            self.map_blocks(write)

    def to_csv(self, path):
        """One row per (path, step): path,t,x,dB.

        Each path is one string, built as `PdeSolution.to_csv` builds a
        level: t and the separators once per call, the path label once
        per path, x and dB by slice assignment.  The increments are drawn
        and the knots replayed one block of BLOCK_PATHS paths at a time,
        so memory holds one block of each and one path's string, never
        the whole file."""
        # Python floats from tolist(); a row reads
        # p "," t "," x "," dB "\n", and dB is 0.0 at t_0
        n = self.n_steps + 1
        parts = [","] * (6 * n)
        parts[1::6] = [t + "," for t in map(repr, self.times.tolist())]
        parts[4] = repr(0.0)
        parts[5::6] = ["\n"] * n
        with open(path, "w", newline="") as fh:
            fh.write("path,t,x,dB\n")

            def write(start, stop, dw):
                x = self.knots(dw=dw)
                for p, row, db in zip(range(start, stop), x, dw.T):
                    parts[0::6] = [f"{p},"] * n
                    parts[2::6] = map(repr, row.tolist())
                    parts[10::6] = map(repr, db.tolist())
                    fh.write("".join(parts))
            self.map_blocks(write)


_KEY_LIMIT = 1 << 128
_WORD = (1 << 64) - 1


def path_normals(seed, salt, start, stop, shape=(), out=None):
    """Standard normals of shape (stop - start, *shape) for paths
    start..stop-1.  Row i equals Generator(Philox(key=k)).standard_normal(shape)
    with k = (seed << 64) + (salt << 48) + start + i.

    With `out`, a C-contiguous float64 array of exactly that shape, the
    normals are written into it and it is returned, so a caller that draws
    block after block allocates once; any other `out` raises ValueError.
    Raises ValueError for a key outside [0, 2**128), as Philox does.
    """
    n = stop - start
    if out is None:
        out = np.empty((n, *shape))
    elif (out.shape != (n, *shape) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        # a non-contiguous out would be reshaped into a copy and never filled
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{(n, *shape)}, got {out.dtype} {out.shape}")
    _path_streams(seed, salt, start, stop)(0, out.reshape(n, math.prod(shape)))
    return out


def _path_streams(seed, salt, start, stop):
    """fill(a, rows): the standard normals of paths start + a, start + a + 1,
    ... written into the rows of the C-contiguous 2-D float64 array rows
    (see `path_normals`), which is returned.  Raises ValueError now for a
    key of paths start..stop-1 outside [0, 2**128).

    Every fill re-keys one Philox per path through its public state
    setter, which also resets the counter and the output buffer;
    constructing a Philox per path costs several times more, and a state
    dict of Python ints sets faster than the numpy-array dict `bits.state`
    returns.  The one Philox is built from a fixed seed: the first re-key
    overwrites its whole state, and a seedless construction would read 128
    bits of OS entropy per call."""
    first = (int(seed) << 64) + (int(salt) << 48) + int(start)
    if not (0 <= first and first + (stop - start) <= _KEY_LIMIT):
        raise ValueError(f"Philox key outside [0, 2**128) for seed {seed}, "
                         f"salt {salt}, paths {start}..{stop - 1}")
    bits = Philox(0)
    gen = Generator(bits)
    key = [0, 0]
    fresh = {"bit_generator": "Philox",  # counter 0, empty buffer
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def fill(a, rows):
        for i in range(rows.shape[0]):
            k = first + a + i
            key[0], key[1] = k & _WORD, k >> 64
            bits.state = fresh
            gen.standard_normal(out=rows[i])
        return rows
    return fill


def map_path_blocks(draw, fn, n_paths, block):
    """Call fn(start, stop, draw(start, stop)) for the blocks [start, stop)
    of `block` paths that cover 0..n_paths-1, in order on the calling
    thread; each block is done before the next is drawn, so draw may refill
    one buffer.  Raises ValueError for block < 1."""
    if block < 1:
        raise ValueError(f"need block >= 1, got {block}")
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        fn(start, stop, draw(start, stop))


def draw_increments(seed, n_paths, n_steps, dt, start=0, out=None):
    """Brownian increments of paths start..start+n_paths-1, step-major
    (n_steps, n_paths): salt 0 of `path_normals`, scaled by sqrt(dt), in a
    new array or in `out`, a float64 array of that shape, which is
    returned; any other `out` raises ValueError.  The normals are drawn
    SCRATCH_PATHS paths at a time into one path-major scratch, from one
    re-keyed Philox, and scaled in the transposing copy, so the floats do
    not depend on the scratch size and no path-major copy of the whole
    block is held."""
    if out is None:
        out = np.empty((n_steps, n_paths))
    elif out.shape != (n_steps, n_paths) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(n_steps, n_paths)}, "
                         f"got {out.dtype} {out.shape}")
    scale = np.sqrt(dt)
    fill = _path_streams(seed, 0, start, start + n_paths)
    scratch = np.empty((max(1, min(SCRATCH_PATHS, n_paths)), n_steps))

    def draw(a, b):
        return fill(a, scratch[:b - a])

    def copy(a, b, normals):
        np.multiply(normals.T, scale, out=out[:, a:b])
    map_path_blocks(draw, copy, n_paths, len(scratch))
    return out


def time_step(model, t0, n_steps):
    """Step dt of the uniform n_steps Euler grid from t0 to the horizon."""
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    if not t0 < model.horizon:
        raise ValueError("t0 must precede the horizon")
    return (model.horizon - t0) / n_steps


def simulate_paths(model, x0, t0, n_paths, n_steps, seed, tilt=None):
    """Euler-Maruyama paths of the (optionally tilted) diffusion, as a
    PathBundle of their seed.

    With a tilt q the drift becomes b + sigma*q, with q = tilt.rate(t_k, X_k)
    read pointwise at each knot, and the increments are the Q-Brownian
    ones.  The Euler loop runs once here, one block of paths at a time and
    storing no knot, so that a diverged path raises SimulationDivergedError
    now, naming the earliest diverged step over all paths; a reader of the
    knots replays it (`PathBundle.knots`).
    """
    dt = time_step(model, t0, n_steps)
    bundle = PathBundle(n_paths=int(n_paths), n_steps=int(n_steps), seed=int(seed),
                        x0=float(x0), t0=float(t0), dt=dt, model=model, tilt=tilt)
    diverged = []

    def check(start, stop, dw):
        bad = bundle._euler(dw, store=False)[1]
        if bad >= 0:
            diverged.append(bad)
    bundle.map_blocks(check)
    if diverged:
        raise SimulationDivergedError(min(diverged))
    return bundle


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
