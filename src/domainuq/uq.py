"""Mean and variance estimators over the random parameters, quadrature
rules against the uniform density, and error and slope evaluation.

Fields are plain float arrays of node values.  `mc_estimate` is the one
Monte Carlo fold, for plain samples and coupled pairs alike: a solve
block of items comes back as one array of shape (items, draws,
quantities, n), and each (item, draw) row stack is one update of the
Welford recurrence in the accumulator of its fixed-size block of items,
a row per quantity.  The blocks are merged as they arrive by a fixed
binary tree over block index, so memory is flat in the number of items.
Quadrature estimation accumulates first and second weighted moments in
rule order.

Samples and coupled pairs are solved in fixed blocks of `SOLVE_BLOCK`
consecutive items, and quadrature nodes, one column each, in blocks of
`QUADRATURE_BLOCK` (`solve_blocks`), so that a finite element solver can
run a whole block in one lockstep solve; which block an item lands in
depends only on its index.  `map_blocks` is the one place where work
leaves the calling process.  With more than one worker it forks a pool
of worker processes, each of which solves one block per item and sends
the solved fields back.  The calling process folds each block into its
accumulator as the block arrives, and blocks arrive in block order
whatever the worker count, so results are bit identical for any worker
count.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from .errors import DomainUQError, MeshMismatch, NonPositiveData, WorkerDied
from .fem import h1_norm, l2_norm, w11_norm
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
    """First and second moments of a nodal field, as arrays of node values.

    For sample statistics (`weighted` False) `weight` is the sample count
    and `second_central` the running sum of squared deviations; for
    quadrature statistics (`weighted` True) `weight` is the total rule
    weight and `second_central` the centered second moment, which may be
    a tiny negative before clamping.
    """

    weight: float
    mean: np.ndarray
    second_central: np.ndarray
    weighted: bool

    def variance(self) -> np.ndarray:
        if self.weighted:
            return np.maximum(self.second_central, 0.0)
        return self.second_central / (self.weight - 1.0)


class RunningMoments:
    """Welford accumulator over equally weighted vectors or row stacks."""

    def __init__(self, size: int | tuple[int, int]):
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


def tree_merge(accumulators) -> RunningMoments:
    """Merge block accumulators pairwise by block index, as they arrive:
    the n-th merges the top two entries once per factor 2 of n, the rest
    merge from the right, and at most log2(blocks) + 1 are alive."""
    stack = []
    for n, acc in enumerate(accumulators, 1):
        stack.append(acc)
        while n % 2 == 0:
            stack[-2].merge(stack.pop())
            n //= 2
    while len(stack) > 1:
        stack[-2].merge(stack.pop())
    return stack[0]


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
    caller, and a worker that dies raises `WorkerDied` at the first item
    whose result had not arrived (`solve_blocks` names that item's block).
    Otherwise `fn` runs in the calling process, one item at a time; only
    the forking branch imports the process pool.
    """
    global _TASK
    items = list(items)
    workers = min(threads, len(items), _cpu_count())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import (BrokenProcessPool,
                                                    ProcessPoolExecutor)
            chunk = -(-len(items) // (workers * TASKS_PER_WORKER))
            _TASK = (fn, items)
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"))
            try:
                yield from pool.map(_run_item, range(len(items)),
                                    chunksize=chunk)
            except BrokenProcessPool as e:
                raise WorkerDied("a worker process died before the outputs "
                                 "of every item arrived") from e
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

    with closing(map_blocks(run, blocks, threads)) as outputs:
        for block in blocks:
            try:
                block_outputs = next(outputs)
            except WorkerDied as e:
                raise WorkerDied(f"{span(block)} and later: a worker process "
                                 "died before their outputs arrived") from e
            yield from block_outputs


def _block_array(block, indices: range, label: str,
                 axes: tuple[str, ...]) -> np.ndarray:
    """`block` as a float array of one row per index, each row of the
    named `axes`; ValueError for another rank or row count."""
    block = np.asarray(block, dtype=float)
    if block.ndim != 1 + len(axes) or len(block) != len(indices):
        layout = ", ".join((str(len(indices)), *axes))
        raise ValueError(f"{label}s {indices[0]} to {indices[-1]}: solver "
                         f"gave an array of shape {block.shape}, not "
                         f"({layout})")
    return block


def mc_estimate(solver, dims: tuple[int, int], n_samples: int, seed: int,
                threads: int = 1, label: str = "sample"):
    """Monte Carlo mean and variance over i.i.d. draws of (y, z).

    `solver(samples)` takes a list of up to `SOLVE_BLOCK` consecutive
    samples (see `solve_blocks`) and returns one float array of shape
    (len(samples), draws, quantities, n): a plain sample brings one draw
    of each quantity, an antithetic pair two.  Each block of
    `MC_BLOCK_SIZE` consecutive samples folds into one Welford
    accumulator with a row per quantity, draw k of a sample as the
    (quantities, n) stack of its row k, in the order given, and
    `tree_merge` merges the blocks as they arrive.  The result is a list
    of Statistics, one per quantity.

    Sample i is generated from the stream (seed, i), so the estimate is a
    pure function of (seed, n_samples) regardless of the thread count.
    Solver errors abort naming the failing sample as `label i`, and a
    block whose fields have another length than those of the first block
    raises MeshMismatch naming its first sample.  ValueError for a block
    of another rank or row count, or of other draws or quantities than
    the first one, and unless the draws number two or more in all.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    n_y, n_z = dims

    def solve(indices: range) -> np.ndarray:
        return _block_array(solver([draw_sample(n_y, n_z, seed, i)
                                    for i in indices]),
                            indices, label, ("draws", "quantities", "n"))

    def blocks(outputs):
        for i, draws in enumerate(outputs):
            if i == 0:
                shape = draws.shape
            elif draws.shape != shape:
                # a block is one array, so i is the first sample of its block
                if draws.shape[-1] != shape[-1]:
                    raise MeshMismatch(
                        f"{label} {i}: field of {draws.shape[-1]} values, "
                        f"{label} 0 gave {shape[-1]}")
                raise ValueError(f"{label} {i}: (draws, quantities) "
                                 f"{draws.shape[:2]}, {label} 0 gave "
                                 f"{shape[:2]}")
            if i % MC_BLOCK_SIZE == 0:
                if i:
                    yield acc
                acc = RunningMoments(shape[1:])
            for x in draws:
                acc.update(x)
        yield acc

    with closing(solve_blocks(solve, n_samples, label, threads)) as outputs:
        merged = tree_merge(blocks(outputs))
    if merged.count < 2:
        raise ValueError("the samples need two or more draws in all")
    return [Statistics(float(merged.count), mean, m2, weighted=False)
            for mean, m2 in zip(merged.mean, merged.m2)]


def quadrature_estimate(solver, rule: "QuadratureRule",
                        threads: int = 1) -> Statistics:
    """Weighted mean and centered-second-moment variance over a rule.

    `solver(nodes)` takes an array of up to `QUADRATURE_BLOCK`
    consecutive nodes (see `solve_blocks`) and returns a
    (len(nodes), n) float array, one row of node values per node.

    The mean is sum_i w_i u(node_i) and the second moment
    sum_i w_i u(node_i)^2 - mean^2, accumulated in rule order; the
    variance accessor clamps it at zero.  Solver errors abort with the
    failing node index, and so does a MeshMismatch for a row whose length
    differs from node 0's.  ValueError for a block of another rank or row
    count.
    """
    if len(rule.nodes) == 0:
        raise ValueError("quadrature rule is empty")
    label = "quadrature node"
    s1 = s2 = None
    with closing(solve_blocks(
            lambda indices: _block_array(
                solver(rule.nodes[indices.start:indices.stop]), indices,
                label, ("n",)),
            len(rule.nodes), label, threads, QUADRATURE_BLOCK)) as outputs:
        for i, (w, u) in enumerate(zip(rule.weights, outputs)):
            if s1 is None:
                s1, s2 = np.zeros(len(u)), np.zeros(len(u))
            elif len(u) != len(s1):
                raise MeshMismatch(f"{label} {i}: field of {len(u)} values, "
                                   f"{label} 0 gave {len(s1)}")
            s1 += w * u
            s2 += w * (u * u)
    return Statistics(weight=float(rule.weights.sum()), mean=s1,
                      second_central=s2 - s1 * s1, weighted=True)


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


def _index_set(dim: int, level: int) -> list[tuple[int, ...]]:
    """All multi-indices alpha with sum_j alpha_j <= level."""
    out: list[tuple[int, ...]] = []

    def rec(j: int, prefix: tuple[int, ...], budget: int):
        if j == dim:
            out.append(prefix)
            return
        for k in range(budget + 1):
            rec(j + 1, prefix + (k,), budget - k)
    rec(0, (), level)
    return out


def smolyak_node_bound(dim: int, level: int) -> int:
    """The nodes of `smolyak_rule(dim, level)` before equal nodes merge,
    counted without building it: the sum of prod(alpha_j + 1) over the
    multi-indices with a nonzero combination coefficient, those with
    level - dim < |alpha| <= level.  The multi-indices with |alpha| = s
    contribute C(s + 2 dim - 1, 2 dim - 1), the x^s coefficient of
    (sum_k (k + 1) x^k)^dim = (1 - x)^(-2 dim)."""
    return sum(comb(s + 2 * dim - 1, 2 * dim - 1)
               for s in range(max(0, level - dim + 1), level + 1))


def smolyak_rule(dim: int, level: int) -> QuadratureRule:
    """Sparse combination of 1D Gauss-Legendre rules.

    The multi-index set is {alpha : sum_j alpha_j <= level} with the 1D
    rule of order alpha_j + 1 in dimension j, so for dim = 1 the rule is
    the (level + 1)-point Gauss-Legendre rule and level 0 is the single
    midpoint node.  Combination weights of the merged nodes may be
    negative for dim >= 2; they always sum to one and the node set is
    symmetric under sign flips.
    """
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if level < 0:
        raise ValueError("level must be at least 0")

    rules_1d: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def rule_1d(order: int):
        if order not in rules_1d:
            rules_1d[order] = _gl_1d(order)
        return rules_1d[order]

    merged: dict[tuple, float] = {}
    for alpha in sorted(_index_set(dim, level)):
        # c_alpha = sum_{r <= b} (-1)^r C(dim, r), telescoped
        b = level - sum(alpha)
        coeff = 0 if b >= dim else (-1) ** b * comb(dim - 1, b)
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


def norm_by_name(mesh: Mesh, v: np.ndarray, norm: str) -> float:
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


def statistics_to_text(stats: Statistics, level: int) -> str:
    """The text of `stats`, with the refinement level of its mesh."""
    kind = "quad" if stats.weighted else "mc"
    n = len(stats.mean)
    lines = [f"stats nodes {n} level {level} weight {fmt(stats.weight)} kind {kind}"]
    lines.append(f"field {n}")
    lines.extend(fmt(x) for x in stats.mean)
    lines.append(f"field {n}")
    lines.extend(fmt(x) for x in stats.variance())
    return "\n".join(lines) + "\n"


def save_statistics(stats: Statistics, level: int, path) -> None:
    with open(path, "w") as f:
        f.write(statistics_to_text(stats, level))
