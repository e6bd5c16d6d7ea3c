"""Low-rank covariance factorization and discrete Karhunen-Loeve bases.

The pivoted Cholesky decomposition builds C ~= L L^T column by column,
choosing the largest remaining diagonal entry as the next pivot and
evaluating covariance entries on the fly, so the full matrix is never
stored.  The generalized eigenproblem of the mass-weighted covariance is
then reduced to a dense symmetric problem of the factor's rank.  The
truncation rule is applied to the eigenvalues of that small problem, and
only the modes it keeps are lifted back to the n nodal values, one mass
block of rows at a time.  So the KL build holds at most two factor-sized
arrays at once: the factorization's column buffer, at most
`INITIAL_BUFFER_COLUMNS` wider than the rank, with the final factor, and
then the factor with either `M_hat L` or the kept modes.  `M_hat L` is
formed by scipy's compiled CSR kernels (`fem.csr_product`), which `fem`
loads without importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailed, NotPSD
from .fem import csr_product

#: Pivot diagonals below -NEG_TOL_FACTOR * trace(C) mean C is not PSD.
NEG_TOL_FACTOR = 1e-12

#: Width of the first column buffer of `pivoted_cholesky`, and of each step
#: by which a full buffer grows.
INITIAL_BUFFER_COLUMNS = 16


@dataclass
class LowRankFactor:
    """Pivoted Cholesky factor L with its pivot order and residual trace.

    `columns` holds exactly `rank` columns, so the factor takes n * rank
    floats whatever buffer it was built in.  `residual_history[k]` is the
    remaining trace after k columns, starting at trace(C); it is
    non-negative and non-increasing.
    """

    columns: np.ndarray        # (n, rank), column k produced at step k
    pivots: np.ndarray         # (rank,)
    trace_residual: float
    residual_history: np.ndarray

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def pivoted_cholesky(oracle, tol: float) -> LowRankFactor:
    """Greedy low-rank factorization C ~= L L^T of a PSD covariance.

    `oracle` gives access to the symmetric C without storing it: its
    size `n`, its `diagonal()` and its `column(j)`.  Stops once the
    residual trace drops to tol * trace(C) or no positive pivot is left.
    Ties in the pivot search are broken by the lowest index.  Storage is
    O(n * rank); the oracle is queried one column per step.  The column
    buffer starts `INITIAL_BUFFER_COLUMNS` wide and grows by that many
    columns whenever it is full, never past n.  The last buffer is at
    most one step wider than the rank, and the factor is copied out of
    it, so the peak is about two factor sizes.  The buffer's width does
    not change the factor's bits.

    Raises
    ------
    NotPSD
        If a selected pivot diagonal is below -1e-12 * trace(C).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = oracle.n

    d = np.asarray(oracle.diagonal(), dtype=float).copy()
    trace0 = float(d.sum())
    target = tol * trace0
    neg_tol = -NEG_TOL_FACTOR * max(trace0, 1.0)

    cols = np.zeros((n, min(INITIAL_BUFFER_COLUMNS, n)))
    pivots: list[int] = []
    residual = max(trace0, 0.0)
    history = [residual]

    k = 0
    while residual > target:
        i = int(np.argmax(d))
        di = float(d[i])
        if di < neg_tol:
            raise NotPSD(f"pivot diagonal {di:.3e} below {neg_tol:.3e} at index {i}")
        if di <= 0.0:
            break
        if k == cols.shape[1]:
            grown = np.zeros((n, min(k + INITIAL_BUFFER_COLUMNS, n)))
            grown[:, :k] = cols
            cols = grown
        c = np.asarray(oracle.column(i), dtype=float).copy()
        if k:
            c -= cols[:, :k] @ cols[i, :k]
        root = np.sqrt(di)
        c /= root
        c[i] = root
        c[pivots] = 0.0  # exact lower-triangularity in pivot order
        cols[:, k] = c
        d -= c * c
        d[i] = 0.0
        if float(d.min()) < neg_tol:
            raise NotPSD(
                f"residual diagonal {d.min():.3e} below {neg_tol:.3e} "
                f"after {k + 1} pivots")
        pivots.append(i)
        residual = max(float(d.sum()), 0.0)
        residual = min(residual, history[-1])
        history.append(residual)
        k += 1

    return LowRankFactor(
        columns=cols[:, :k].copy(),
        pivots=np.array(pivots, dtype=np.int64),
        trace_residual=residual,
        residual_history=np.array(history),
    )


@dataclass
class KLBasis:
    """Mass-orthogonal discrete KL modes, eigenvalues sorted descending.

    `modes[k]` is the nodal vector of the k-th mode scaled such that
    modes[k] @ M_hat @ modes[k] = mu[k]; i.e. the rows already carry the
    sqrt-eigenvalue factor of the truncated expansion.  A basis built by
    `reduced_eigs` with a `tol` holds only the kept modes: the discarded
    ones are never lifted to nodal vectors.
    """

    mu: np.ndarray             # (m,)
    modes: np.ndarray          # (m, n)

    @property
    def n_modes(self) -> int:
        return len(self.mu)

    @property
    def n(self) -> int:
        return self.modes.shape[1]


def kept_count(mu: np.ndarray, tol: float) -> int:
    """Length of the smallest leading set of the descending eigenvalues
    `mu` whose discarded trace is within tol.

    The criterion is relative: sum of discarded eigenvalues at most
    tol * sum of all eigenvalues.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    total = float(mu.sum())
    if total == 0.0:
        return 0
    suffix = np.concatenate([np.cumsum(mu[::-1])[::-1], [0.0]])
    return int(np.argmax(suffix <= tol * total))


def reduced_eigs(factor: LowRankFactor, mass, block: int,
                 tol: float | None = None) -> KLBasis:
    """Eigenpairs of the mass-weighted covariance restricted to range(L).

    Solves the dense symmetric problem (L^T M_hat L) v~ = mu v~, where
    M_hat is the block-diagonal matrix with `block` copies of the CSR
    matrix `mass` (anything with `indptr`, `indices`, `data` and `shape`:
    a `fem.CSRArrays` or a scipy `csr_matrix`, with int32 indices), and
    lifts the eigenvectors by v = L v~.  The lifted vectors satisfy
    v_i^T M_hat v_j = mu_i delta_ij.
    With `tol`, only the leading pairs that `kept_count` keeps are lifted;
    without it, all `rank` are.

    Besides the (n, rank) factor L, the arrays live at once are M_hat L,
    each of whose mass blocks scipy's kernel (`fem.csr_product`) adds
    into zeros in place, until L^T M_hat L is formed (it is freed before
    the lift); then the (m, n) `modes` of the m kept eigenvectors, lifted
    one mass block of rows at a time, with the (n / block, m) lift of one
    block.  Both are bit for bit what `mass @ L[sl]` and the whole lift
    `(L @ V[:, :m]).T` give.
    """
    L = factor.columns
    n_total, rank = L.shape
    n_mass = mass.shape[0]
    # the kernel does not check sizes
    if mass.shape != (n_mass, n_mass) or n_total != block * n_mass:
        raise ValueError(f"a factor of {n_total} rows needs {block} blocks "
                         f"of a square mass matrix, not {mass.shape}")
    blocks = [slice(b * n_mass, (b + 1) * n_mass) for b in range(block)]
    ML = np.zeros((n_total, rank))
    for sl in blocks:
        csr_product(mass, L[sl], out=ML[sl])
    S = L.T @ ML
    del ML
    S = 0.5 * (S + S.T)
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as e:
        raise EigFailed(f"dense symmetric eigensolve failed: {e}") from e
    w = np.maximum(w[::-1], 0.0)
    V = V[:, ::-1]
    keep = rank if tol is None else kept_count(w, tol)
    modes = np.empty((keep, n_total))
    for sl in blocks:
        modes[:, sl] = (L[sl] @ V[:, :keep]).T
    return KLBasis(mu=w[:keep].copy(), modes=modes)
