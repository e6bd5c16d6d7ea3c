"""Mean and variance estimators over the random parameters, quadrature
rules against the uniform density, and error and slope evaluation.

Monte Carlo estimation uses the Welford recurrence per fixed-size sample
block and a fixed binary tree merge over block index.  Quadrature
estimation accumulates first and second weighted moments in rule order.

Samples and coupled pairs are solved in fixed blocks of `SOLVE_BLOCK`
consecutive items, and quadrature nodes, one column each, in blocks of
`QUADRATURE_BLOCK` (`solve_blocks`), so that a finite element solver can
run a whole block in one lockstep solve; which block an item lands in
depends only on its index.  `map_blocks` is the one place where work
leaves the calling process.  With more than one worker it
forks a pool of worker processes, each of which solves one block per item
and sends the solved fields back; the calling process folds them per
item, in index order, into the same accumulators, so results are bit
identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from itertools import chain, combinations, product
from math import comb

import numpy as np

from .errors import DomainUQError, MeshMismatch, NonPositiveData, WorkerDied
from .fem import NodalField, h1_norm, l2_norm, w11_norm
from .fields import SQRT3, draw_sample
from .mesh import Mesh
from .textio import fmt

#: Samples per Monte Carlo accumulation block (independent of thread count).
MC_BLOCK_SIZE = 32

#: Consecutive samples or pairs per solve block (independent of thread
#: count).  Each brings one column per amplitude to the block.
SOLVE_BLOCK = 4

#: Consecutive quadrature nodes per solve block (independent of thread
#: count).  A node brings one column, and a wider block shares each
#: multi-vector V-cycle product among more of them.
QUADRATURE_BLOCK = 8


@dataclass
class Statistics:
    """First and second moments of a nodal field.

    For sample statistics (`weighted` False) `weight` is the sample count
    and `second_central` the running sum of squared deviations; for
    quadrature statistics (`weighted` True) `weight` is the total rule
    weight and `second_central` the centered second moment, which may be
    a tiny negative before clamping.
    """

    weight: float
    mean: NodalField
    second_central: NodalField
    weighted: bool

    @property
    def level(self) -> int:
        return self.mean.level

    def variance(self) -> NodalField:
        if self.weighted:
            return NodalField(np.maximum(self.second_central.values, 0.0),
                              self.level)
        return NodalField(self.second_central.values / (self.weight - 1.0),
                          self.level)


class RunningMoments:
    """Welford accumulator over equally weighted vector samples."""

    def __init__(self, size: int):
        self.count = 0
        self.mean = np.zeros(size)
        self.m2 = np.zeros(size)

    def update(self, x: np.ndarray) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.count / n)
        self.m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        self.count = n

    def freeze(self, level: int) -> Statistics:
        return Statistics(weight=float(self.count),
                          mean=NodalField(self.mean.copy(), level),
                          second_central=NodalField(self.m2.copy(), level),
                          weighted=False)


def tree_merge(accumulators: list[RunningMoments]) -> RunningMoments:
    """Merge block accumulators pairwise by block index until one remains."""
    accs = list(accumulators)
    while len(accs) > 1:
        merged = []
        for i in range(0, len(accs), 2):
            if i + 1 < len(accs):
                accs[i].merge(accs[i + 1])
            merged.append(accs[i])
        accs = merged
    return accs[0]


def sample_blocks(n_samples: int, block_size: int = MC_BLOCK_SIZE):
    """Fixed partition of sample indices into accumulation blocks."""
    return [(s, min(s + block_size, n_samples))
            for s in range(0, n_samples, block_size)]


def block_accumulators(streams, n_items: int) -> list[list[RunningMoments]]:
    """Welford accumulators of per-item vectors, per quantity and block.

    `streams` yields, for each of `n_items` items in order, one sequence
    of vectors per quantity (the same number of quantities every time).
    Each block of `sample_blocks(n_items)` folds its items into fresh
    accumulators, vector by vector in the order given.  Returns, for each
    quantity, its accumulators in block order, ready for `tree_merge`.
    """
    blocks = []
    for lo, hi in sample_blocks(n_items):
        accs = None
        for _ in range(lo, hi):
            vectors = next(streams)
            if accs is None:
                accs = [RunningMoments(len(v[0])) for v in vectors]
            for acc, values in zip(accs, vectors):
                for x in values:
                    acc.update(x)
        blocks.append(accs)
    return [list(per_quantity) for per_quantity in zip(*blocks)]


#: (fn, items) of the running `map_blocks`, inherited by forked workers.
_TASK = None

#: Pool tasks per worker; more tasks balance better, fewer cost less.
TASKS_PER_WORKER = 8


def _run_item(index: int):
    fn, items = _TASK
    return fn(items[index])


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, items, threads: int = 1):
    """Yield fn(item) for each item, in the order of `items`.

    With `min(threads, len(items), usable CPUs)` above one and the `fork`
    start method available, the items are spread over that many forked
    worker processes in chunked tasks.  The workers inherit `fn` and
    `items` at fork time, so `fn` may be a closure; results and exceptions
    travel back by pickle.  Results are yielded as soon as they and all
    earlier ones have arrived.  An exception raised by a task reaches the
    caller, and a worker that dies raises `BrokenProcessPool` at the first
    item whose result had not arrived (`solve_blocks` names that item's
    block in a `WorkerDied`).  Otherwise `fn` runs in the calling process,
    one item at a time.
    """
    global _TASK
    items = list(items)
    workers = min(threads, len(items), _cpu_count())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import ProcessPoolExecutor
            chunk = -(-len(items) // (workers * TASKS_PER_WORKER))
            _TASK = (fn, items)
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"))
            try:
                yield from pool.map(_run_item, range(len(items)),
                                    chunksize=chunk)
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
                _TASK = None
            return
    for item in items:
        yield fn(item)


def solve_blocks(fn, n_items: int, label: str, threads: int = 1,
                 width: int = SOLVE_BLOCK):
    """Yield the output of each item 0, ..., n_items - 1, in order.

    `fn(indices)` receives a range of up to `width` consecutive item
    indices and returns one output per index; the blocks are fixed by
    index and width alone and dispatched by `map_blocks`.  A DomainUQError
    raised by `fn` is raised again naming the failing item as `label i`,
    from the position `index` it carries, or the block's range if it
    carries none.  A worker process that dies raises `WorkerDied` naming
    the range of the first block whose outputs did not arrive.
    """
    blocks = [range(lo, min(lo + width, n_items))
              for lo in range(0, n_items, width)]

    def span(block: range) -> str:
        return f"{label}s {block[0]} to {block[-1]}"

    def run(block: range):
        try:
            return fn(block)
        except DomainUQError as e:
            where = (f"{label} {block[e.index]}"
                     if e.index in range(len(block)) else span(block))
            raise type(e)(f"{where}: {e}") from e

    outputs = map_blocks(run, blocks, threads)
    for block in blocks:
        try:
            block_outputs = next(outputs)
        except BrokenExecutor as e:
            raise WorkerDied(f"{span(block)} and later: a worker process "
                             "died before their outputs arrived") from e
        yield from block_outputs


def mc_estimate(solver, dims: tuple[int, int], n_samples: int, seed: int,
                threads: int = 1):
    """Plain Monte Carlo mean and variance over i.i.d. draws of (y, z).

    `solver(samples)` takes a list of up to `SOLVE_BLOCK` consecutive
    samples (see `solve_blocks`) and returns one output per sample.  An
    output that is a NodalField makes the result its Statistics; one that
    is a list of NodalFields, several quantities computed from one
    sample, makes the result a list of Statistics in the same order, each
    from its own accumulators.

    Sample i is generated from the stream (seed, i), so the estimate is a
    pure function of (seed, n_samples) regardless of the thread count.
    Solver errors abort with the failing sample index.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    n_y, n_z = dims
    outputs = solve_blocks(
        lambda indices: solver([draw_sample(n_y, n_z, seed, i)
                               for i in indices]),
        n_samples, "sample", threads)
    first = next(outputs)
    single = isinstance(first, NodalField)

    def fields(out):
        return [out] if single else out

    blocks = block_accumulators(([(f.values,) for f in fields(out)]
                                 for out in chain([first], outputs)),
                                n_samples)
    stats = [tree_merge(accs).freeze(f.level)
             for accs, f in zip(blocks, fields(first))]
    return stats[0] if single else stats


def quadrature_estimate(solver, rule: "QuadratureRule",
                        threads: int = 1) -> Statistics:
    """Weighted mean and centered-second-moment variance over a rule.

    `solver(nodes)` takes an array of up to `QUADRATURE_BLOCK`
    consecutive nodes (see `solve_blocks`) and returns one NodalField per
    node.

    The mean is sum_i w_i u(node_i) and the second moment
    sum_i w_i u(node_i)^2 - mean^2, accumulated in rule order; the
    variance accessor clamps it at zero.  Solver errors abort with the
    failing node index.
    """
    if len(rule.nodes) == 0:
        raise ValueError("quadrature rule is empty")
    outputs = solve_blocks(
        lambda indices: solver(rule.nodes[indices.start:indices.stop]),
        len(rule.nodes), "quadrature node", threads, QUADRATURE_BLOCK)
    s1 = s2 = None
    for w, u in zip(rule.weights, outputs):
        if s1 is None:
            s1, s2, level = np.zeros(u.n), np.zeros(u.n), u.level
        s1 += w * u.values
        s2 += w * (u.values * u.values)
    return Statistics(weight=float(rule.weights.sum()),
                      mean=NodalField(s1, level),
                      second_central=NodalField(s2 - s1 * s1, level),
                      weighted=True)


@dataclass
class QuadratureRule:
    """Nodes in [-sqrt(3), sqrt(3)]^d with weights summing to one."""

    nodes: np.ndarray     # (k, d)
    weights: np.ndarray   # (k,)


def _gl_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights against the uniform density on
    [-sqrt(3), sqrt(3)] (weights sum to one)."""
    t, w = np.polynomial.legendre.leggauss(n)
    return SQRT3 * t, 0.5 * w


def gauss_legendre_1d(n: int) -> QuadratureRule:
    """n-point rule, exact for polynomials up to degree 2n - 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    nodes, weights = _gl_1d(n)
    return QuadratureRule(nodes=nodes.reshape(-1, 1), weights=weights)


def _index_set(dim: int, level: float, weights: np.ndarray) -> list[tuple[int, ...]]:
    """All multi-indices alpha with sum_j weights_j * alpha_j <= level."""
    out: list[tuple[int, ...]] = []

    def rec(j: int, prefix: tuple[int, ...], budget: float):
        if j == dim:
            out.append(prefix)
            return
        k = 0
        while k * weights[j] <= budget + 1e-12:
            rec(j + 1, prefix + (k,), budget - k * weights[j])
            k += 1
    rec(0, (), float(level))
    return out


def smolyak_rule(dim: int, level: int,
                 weights: np.ndarray | None = None) -> QuadratureRule:
    """Sparse combination of 1D Gauss-Legendre rules.

    The multi-index set is {alpha : sum_j weights_j * alpha_j <= level}
    with the 1D rule of order alpha_j + 1 in dimension j, so for dim = 1
    the rule coincides with gauss_legendre_1d(level + 1) and level 0 is
    the single midpoint node.  Per-dimension weights >= 1 thin out the
    weakly contributing dimensions.  Combination weights of the merged
    nodes may be negative for dim >= 2; they always sum to one and the
    node set is symmetric under sign flips.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if level < 0:
        raise ValueError("level must be at least 0")
    if weights is None:
        weights = np.ones(dim)
    weights = np.asarray(weights, dtype=float)
    if len(weights) != dim:
        raise ValueError(f"weights must have length {dim}")
    if np.any(weights < 1.0):
        raise ValueError("anisotropy weights must be at least 1")

    members = set(_index_set(dim, level, weights))

    rules_1d: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def rule_1d(order: int):
        if order not in rules_1d:
            rules_1d[order] = _gl_1d(order)
        return rules_1d[order]

    uniform = bool(np.all(weights == 1.0))
    merged: dict[tuple, float] = {}
    for alpha in sorted(members):
        budget = level - sum(w * a for w, a in zip(weights, alpha))
        if uniform:
            # c_alpha = sum_{r <= budget} (-1)^r C(dim, r), telescoped.
            b = int(budget + 1e-12)
            coeff = 0 if b >= dim else (-1) ** b * comb(dim - 1, b)
        else:
            dims_in_budget = [j for j in range(dim) if weights[j] <= budget + 1e-12]
            coeff = 0
            max_extra = int(budget + 1e-12)
            for r in range(0, min(len(dims_in_budget), max_extra) + 1):
                for subset in combinations(dims_in_budget, r):
                    if sum(weights[j] for j in subset) <= budget + 1e-12:
                        coeff += -1 if r % 2 else 1
        if coeff == 0:
            continue
        axes = [list(zip(*rule_1d(a + 1))) for a in alpha]
        for combo in product(*axes):
            key = tuple(float(c[0]) for c in combo)
            wt = coeff * float(np.prod([c[1] for c in combo]))
            merged[key] = merged.get(key, 0.0) + wt

    keys = [k for k, w in merged.items() if w != 0.0]
    nodes = np.array(sorted(keys))
    wts = np.array([merged[tuple(row.tolist())] for row in nodes])
    return QuadratureRule(nodes=nodes.reshape(len(nodes), dim), weights=wts)


def anisotropy_weights(mode_magnitudes: np.ndarray) -> np.ndarray:
    """Per-dimension sparse grid weights from KL mode magnitudes.

    Dimensions with smaller magnitude get larger weight (fewer nodes):
    w_k = max(1, 1 + log2(g_max / g_k)).
    """
    g = np.asarray(mode_magnitudes, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError("mode magnitudes must be positive")
    return np.maximum(1.0, 1.0 + np.log2(g.max() / g))


def field_error(mesh: Mesh, a: Statistics, b: Statistics,
                which: str = "mean", norm: str = "h1") -> float:
    """Norm of the difference between two estimates of the mean or the
    variance field on the same mesh."""
    if (a.level != b.level or a.mean.n != b.mean.n
            or a.mean.n != mesh.n_nodes):
        raise MeshMismatch(
            f"statistics on levels {a.level}/{b.level} with sizes "
            f"{a.mean.n}/{b.mean.n} do not match mesh level {mesh.level} "
            f"({mesh.n_nodes} nodes)")
    if which == "mean":
        diff = a.mean - b.mean
    elif which == "variance":
        diff = a.variance() - b.variance()
    else:
        raise ValueError(f"unknown field selector {which!r}")
    return norm_by_name(mesh, diff, norm)


def norm_by_name(mesh: Mesh, v: NodalField, norm: str) -> float:
    if norm == "h1":
        return h1_norm(mesh, v)
    if norm == "w11":
        return w11_norm(mesh, v)
    if norm == "l2":
        return l2_norm(mesh, v)
    raise ValueError(f"unknown norm {norm!r}")


def slope_fit(points) -> float:
    """Least squares slope of log(error) against log(eps)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise ValueError("need at least two (eps, error) points")
    if np.any(pts <= 0.0):
        raise NonPositiveData("slope fit requires positive eps and error values")
    return float(np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)[0])


def statistics_to_text(stats: Statistics) -> str:
    kind = "quad" if stats.weighted else "mc"
    n = stats.mean.n
    lines = [f"stats nodes {n} level {stats.level} weight {fmt(stats.weight)} kind {kind}"]
    lines.append(f"field {n}")
    lines.extend(fmt(x) for x in stats.mean.values)
    lines.append(f"field {n}")
    lines.extend(fmt(x) for x in stats.variance().values)
    return "\n".join(lines) + "\n"


def statistics_from_text(text: str) -> Statistics:
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "stats":
        raise ValueError(f"bad stats header: {lines[0]!r}")
    n, level, weight, kind = (int(header[2]), int(header[4]),
                              float(header[6]), header[8])
    mean = np.array([float(lines[2 + i]) for i in range(n)])
    var = np.array([float(lines[3 + n + i]) for i in range(n)])
    weighted = kind == "quad"
    sc = var if weighted else var * (weight - 1.0)
    return Statistics(weight=weight, mean=NodalField(mean, level),
                      second_central=NodalField(sc, level), weighted=weighted)


def save_statistics(stats: Statistics, path) -> None:
    with open(path, "w") as f:
        f.write(statistics_to_text(stats))
