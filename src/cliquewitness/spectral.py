"""Pair-space projectors, expected-block spectra, and PSD certification.

The pair space R^C(n,2) splits into three invariant subspaces under vertex
permutations: constants (dim 1), sums u_i + u_j with u mean-free (dim n-1),
and the orthogonal complement (dim n(n-3)/2).  Expected witness blocks are
constant on intersection patterns, hence diagonalized by this splitting; this
module provides matrix-free projector applications, the closed-form spectra,
and the certification utilities built on top of them.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from functools import cache
from math import comb, fsum, log, sqrt
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np
from scipy.linalg import eigh, eigvalsh, get_lapack_funcs

from .params import WitnessParams
from .subsets import SubsetIndexer

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

_DENSE_EIG_CUTOFF = 600
_COND_GUARD = 1e12
# rows per block of the symmetry test; keeps its temporaries O(dim * block)
_SYM_BLOCK = 256


def _pairs_count(vector_length: int) -> int:
    """Recover n from C(n, 2) = vector_length."""
    n = int(round((1 + sqrt(1 + 8 * vector_length)) / 2))
    if n * (n - 1) // 2 != vector_length:
        raise ValueError(f"length {vector_length} is not a pair count C(n, 2)")
    return n


# ----------------------------------------------------------------------
# projectors
# ----------------------------------------------------------------------


class ProjectorFamily:
    """Matrix-free projectors P0, P1, P2 on pairs and Q, Q-perp on vertices.

    With S the vertex-pair incidence operator ((S v)_i = sum over pairs
    containing i), the projector onto constants-plus-sums is
    S^T (S S^T)^{-1} S, and S S^T = (n-2) I + 1 1^T has a closed-form
    inverse.  All applications cost O(n^2).
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(f"vertex count must be at least 4, got {n}")
        self.n = n
        self.num_pairs = n * (n - 1) // 2
        ix = SubsetIndexer(n)
        self._hi, self._ti = ix.pair_ends

    def _check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.num_pairs,):
            raise ValueError(f"expected a vector of length {self.num_pairs}, got {v.shape}")
        return v

    def incidence_sum(self, v: np.ndarray) -> np.ndarray:
        """(S v)_i = sum of v over pairs containing i."""
        v = self._check(v)
        return np.bincount(self._hi, weights=v, minlength=self.n) + np.bincount(
            self._ti, weights=v, minlength=self.n
        )

    def incidence_lift(self, u: np.ndarray) -> np.ndarray:
        """(S^T u)_{ij} = u_i + u_j."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected a vector of length {self.n}, got {u.shape}")
        return u[self._hi] + u[self._ti]

    def _gram_solve(self, w: np.ndarray) -> np.ndarray:
        # (S S^T)^{-1} w for S S^T = (n-2) I + 1 1^T
        return (w - w.sum() / (2 * self.n - 2)) / (self.n - 2)

    def apply(self, a: int, v: np.ndarray) -> np.ndarray:
        v = self._check(v)
        p0 = np.full(self.num_pairs, v.mean())
        if a == 0:
            return p0
        p01 = self.incidence_lift(self._gram_solve(self.incidence_sum(v)))
        if a == 1:
            return p01 - p0
        if a == 2:
            return v - p01
        raise ValueError(f"projector label must be 0, 1 or 2, got {a}")

    def q_apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.full(self.n, u.mean())

    # explicit unit basis vectors -------------------------------------

    def basis_v0(self) -> np.ndarray:
        return np.full(self.num_pairs, sqrt(2.0 / (self.n * (self.n - 1))))

    def basis_v1(self, i: int) -> np.ndarray:
        n = self.n
        out = np.full(self.num_pairs, -2.0 / sqrt(n * (n - 1) * (n - 2)))
        touch = (self._hi == i - 1) | (self._ti == i - 1)
        out[touch] = sqrt((n - 2) / (n * (n - 1)))
        return out

    def basis_v2(self, i: int, j: int) -> np.ndarray:
        n = self.n
        f = sqrt((n - 3) / (n - 1))
        out = np.full(self.num_pairs, f / comb(n - 2, 2))
        touch_i = (self._hi == i - 1) | (self._ti == i - 1)
        touch_j = (self._hi == j - 1) | (self._ti == j - 1)
        out[touch_i ^ touch_j] = -f / (n - 2)
        out[touch_i & touch_j] = f
        return out

    def dense(self, a: int) -> np.ndarray:
        """Materialized projector, intended for small-n oracle tests."""
        eye = np.eye(self.num_pairs)
        return np.column_stack([self.apply(a, eye[:, t]) for t in range(self.num_pairs)])


# ----------------------------------------------------------------------
# expected blocks and their spectra
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedSpectrum:
    """Eigenvalues of the expected pair block with their multiplicities."""

    lambda0: float
    lambda1: float
    lambda2: float
    multiplicities: Tuple[int, int, int]


def expected_block(block: str, n: int, params: WitnessParams) -> np.ndarray:
    """Exact expectation of a centered-witness block over the edge draw."""
    if block != "H11":
        return expected_rows(block, n, params)(slice(None))
    if n < 5:
        raise ValueError(f"expected blocks need n >= 5, got {n}")
    a1, a2 = params.alpha1, params.alpha2
    p = params.p
    out = np.full((n, n), a2 * p - a1 * a1)
    np.fill_diagonal(out, (a1 - a2 * p) + (a2 * p - a1 * a1))
    return out


def expected_rows(block: str, n: int, params: WitnessParams) -> Callable[[slice], np.ndarray]:
    """Rows of the exact expectation of the block "H12" or "H22": a function
    of a row slice, made once n and the block are checked.

    An entry depends only on how many vertices its row and column subsets
    share: none, one, or (on the H22 diagonal) both.
    """
    if n < 5:
        raise ValueError(f"expected blocks need n >= 5, got {n}")
    a1, a2, a3, a4 = params.alpha
    p = params.p
    ix = SubsetIndexer(n)
    heads, tails = ix.pair_heads, ix.pair_tails
    if block == "H12":
        vertices = np.arange(1, n + 1)

        def rows_of(rows: slice) -> np.ndarray:
            v = vertices[rows, None]
            out = np.full((len(v), ix.num_pairs), a3 * p * p - a1 * a2)
            out[(heads == v) | (tails == v)] = a2 - a1 * a2
            return out

    elif block == "H22":

        def rows_of(rows: slice) -> np.ndarray:
            hi, ti = heads[rows, None], tails[rows, None]
            shared = (hi == heads).astype(np.int8) + (hi == tails) + (ti == heads) + (ti == tails)
            out = np.full(shared.shape, a4 * p**4 - a2 * a2)
            out[shared == 1] = a3 * p - a2 * a2
            out[shared == 2] = a2 - a2 * a2  # a pair shares both vertices only with itself
            return out

    else:
        raise ValueError(f"block must be 'H11', 'H12' or 'H22', got {block}")
    return rows_of


def eigenvalues_expected_H22(n: int, params: WitnessParams) -> ExpectedSpectrum:
    """Closed-form spectrum of the expected pair block."""
    if n < 5:
        raise ValueError(f"expected spectra need n >= 5, got {n}")
    a1, a2, a3, a4 = params.alpha
    p = params.p
    lam0 = (
        a2
        + 2 * (n - 2) * a3 * p
        + (n - 2) * (n - 3) / 2 * a4 * p**4
        - n * (n - 1) / 2 * a2 * a2
    )
    lam1 = a2 + (n - 4) * a3 * p - (n - 3) * a4 * p**4
    lam2 = a2 - 2 * a3 * p + a4 * p**4
    return ExpectedSpectrum(
        lambda0=lam0,
        lambda1=lam1,
        lambda2=lam2,
        multiplicities=(1, n - 1, n * (n - 3) // 2),
    )


@dataclass(frozen=True)
class H12NormTable:
    """Spectral norms of the six projector compressions of the expected
    mixed block: rows split by Q / Q-perp, columns by P0 / P1 / P2."""

    qperp_p0: float
    qperp_p1: float
    qperp_p2: float
    q_p0: float
    q_p1: float
    q_p2: float

    def as_tuple(self) -> Tuple[float, float, float, float, float, float]:
        return (self.qperp_p0, self.qperp_p1, self.qperp_p2, self.q_p0, self.q_p1, self.q_p2)


def expected_H12_norms(n: int, params: WitnessParams) -> H12NormTable:
    """Exact values of the six compressions; four vanish identically.

    The expected mixed block is r1 * 1 1^T + r2 * S for constants r1, r2, so
    compressions against P2 vanish (rows of S span constants plus sums), the
    mean-projector x P1 compression vanishes, and the two survivors have
    closed forms: ||Qperp . P1|| = sqrt(n-2) |alpha2 - alpha3 p^2| and
    ||Q . P0|| = |row sum| * sqrt(2/(n-1)).
    """
    if n < 5:
        raise ValueError(f"expected norms need n >= 5, got {n}")
    a1, a2, a3, _ = params.alpha
    p = params.p
    row_sum = (n - 1) * (a2 - a1 * a2) + comb(n - 1, 2) * (a3 * p * p - a1 * a2)
    return H12NormTable(
        qperp_p0=0.0,
        qperp_p1=sqrt(n - 2) * abs(a2 - a3 * p * p),
        qperp_p2=0.0,
        q_p0=abs(row_sum) * sqrt(2.0 / (n - 1)),
        q_p1=0.0,
        q_p2=0.0,
    )


# ----------------------------------------------------------------------
# PSD certification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PsdReport:
    """A one-Cholesky PSD verdict; certified_min_eig (see psd_check) is a
    lower bound on the smallest eigenvalue when psd holds, else None."""

    certified_min_eig: Optional[float]
    method: str
    tol: float
    psd: bool
    scale: float


def _max_asymmetry(x: np.ndarray) -> float:
    """max |X - X^T|, one block of rows against its column slab at a time;
    NaN propagates."""
    worst = 0.0
    for lo in range(0, x.shape[0], _SYM_BLOCK):
        rows = slice(lo, lo + _SYM_BLOCK)
        with np.errstate(invalid="ignore"):  # inf - inf is the NaN we report
            gap = np.abs(x[rows, lo:] - x[lo:, rows].T)
        worst = float(np.maximum(worst, gap.max()))
    return worst


def _require_symmetric(x: np.ndarray, scale: float) -> float:
    asym = _max_asymmetry(x)
    if np.isnan(asym):  # a NaN entry, or an inf facing an inf (as on the diagonal)
        raise ValueError("matrix has a non-finite entry")
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: max |X - X^T| = {asym}")
    return asym


def psd_check(x: np.ndarray, tol: float = 1e-8) -> PsdReport:
    """Certify positive semidefiniteness up to tol * max |diagonal|.

    Rows with a zero diagonal entry are dropped (in a PSD matrix they vanish;
    one that carries mass gives False).  One Cholesky factorization (potrf,
    upper triangle) of the rest, Y = fl(K + s I) with s = tol * scale,
    decides.  Its success certifies lambda_min((X + X^T) / 2) >= -s - delta,

        delta = g tr(Y) + 2 d (d + 1 + m) eta + u m + D max |X - X^T| / 2,

    d = dim Y, m = max y_ii, D the side tested for symmetry, u = 2^-53,
    eta = 2^-1074, g = gamma_{d+1} / (1 - gamma_{d+1}), gamma_k = k u / (1 - k u).
    g tr(Y) bounds ||R^T R - Y||_2: Higham (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3) gives |R^T R - Y| <=
    gamma_{d+1} |R^T| |R| in any summation order, and Cauchy-Schwarz the
    trace form, as in Rump (Verification of positive definiteness, BIT 46,
    2006, Thm 2.3).  The eta term bounds gradual underflow (eta / 2 per
    product or quotient, sums exact) with a factor 2 of slack, u m the
    rounding of the shifted diagonal, and the last term the gap between
    (X + X^T) / 2 and the upper triangle potrf reads.  delta is rounded up
    and the certificate down.  A failed factorization certifies nothing; a
    matrix with no nonzero entry (0 x 0 too) is PSD with certificate 0.0.

    Raises ValueError on a non-square input, an asymmetry beyond
    1e-10 * scale, or a NaN or infinite entry (dropped rows that hold a
    nonzero are tested too).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    diag = np.diagonal(x)
    scale = float(np.max(np.abs(diag))) if x.size else 0.0
    if scale == 0.0:
        scale = float(np.max(np.abs(x))) if x.size else 1.0
    if scale == 0.0:
        scale = 1.0

    # The dropped rows and columns vanish when the kept block holds every
    # nonzero (a NaN counts as one); X is then symmetric exactly when the
    # block is, and only the block is tested.  Otherwise all of X is tested,
    # and a dropped row that carries mass rules PSD out.
    zero = diag == 0.0
    kept = x
    if zero.any():
        kept = np.ascontiguousarray(x[np.ix_(~zero, ~zero)])
        if np.count_nonzero(kept) == np.count_nonzero(x):
            x = kept
    asym = _require_symmetric(x, scale)
    if x is not kept and np.any(x[zero]):
        return PsdReport(certified_min_eig=None, method="zero-diagonal-row",
                         tol=tol, psd=False, scale=scale)
    if kept.shape[0] == 0:
        return PsdReport(certified_min_eig=0.0, method="zero-matrix",
                         tol=tol, psd=True, scale=scale)

    # Fortran order, so potrf factors this copy in place
    return certified_factorization(np.array(kept, order="F"), tol, x.shape[0] * asym / 2)


def certified_factorization(a: np.ndarray, tol: float, asym_term: float = 0.0) -> PsdReport:
    """psd_check's verdict and certificate (see there) from one potrf (upper
    triangle) of a + s I, s = tol * max |diagonal|, made in place.

    `a` must be F-contiguous (or potrf factors a copy) and hold no zero
    diagonal entry.  asym_term is the last term of delta, D max |X - X^T| / 2:
    0.0 for a matrix known to be exactly symmetric.  potrf is looked up
    through get_lapack_funcs at each call, so a wrapper of that lookup sees
    every factorization.
    """
    (potrf,) = get_lapack_funcs(("potrf",), (a,))
    dim = a.shape[0]
    diag = np.diag_indices(dim)
    scale = float(np.max(np.abs(a[diag])))
    shift = tol * scale
    shifted_diag = a[diag] + shift
    a[diag] = shifted_diag
    _, info = potrf(a, lower=0, clean=0, overwrite_a=1)
    if info != 0:
        return PsdReport(certified_min_eig=None, method="shifted-factorization",
                         tol=tol, psd=False, scale=scale)
    u, eta = np.finfo(float).eps / 2, np.finfo(float).smallest_subnormal
    g = (dim + 1) * u / (1 - 2 * (dim + 1) * u)  # gamma_{d+1} / (1 - gamma_{d+1})
    top = float(shifted_diag.max())
    # the factor 1 + 32 u covers the rounding of this expression
    delta = (g * fsum(shifted_diag) + 2 * dim * (dim + 1 + top) * eta + u * top
             + asym_term) * (1 + 32 * u)
    return PsdReport(certified_min_eig=float(np.nextafter(-shift - delta, -np.inf)),
                     method="shifted-factorization", tol=tol, psd=True, scale=scale)


# ----------------------------------------------------------------------
# operator norms (shared by the deviation-component probes)
# ----------------------------------------------------------------------


@cache
def _openblas_thread_query() -> Optional[Callable[[], int]]:
    # numpy's wheel bundles its OpenBLAS beside the package, in numpy.libs
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        query = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return None
    query.argtypes = []
    query.restype = ctypes.c_int
    return query


def blas_threads() -> Optional[int]:
    """The thread count numpy's bundled OpenBLAS runs its calls on, read
    from that library's own query at each call; None when numpy bundles no
    such library or it lacks the query.  Reading never sets the count."""
    query = _openblas_thread_query()
    return None if query is None else int(query())


def sym_operator_norm(op: LinearOperator) -> float:
    """Spectral norm of a symmetric LinearOperator.

    ARPACK runs to tol 1e-6 from the start vector of seed 0, then of
    seeds 1 and 2 if it does not converge, and raises RuntimeError after
    the third.  An operator that sends two random vectors to zero has
    norm 0.0; the first probe is on the seed-0 start vector, and ARPACK
    reuses it for its first product there.
    """
    # loaded on first use, not at package import
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    dim = op.shape[0]
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dim)
    probe = [op @ x0]
    if float(np.linalg.norm(probe[0])) == 0.0:
        if float(np.linalg.norm(op @ rng.standard_normal(dim))) == 0.0:
            return 0.0

    apply = op.matvec

    def matvec(x: np.ndarray) -> np.ndarray:
        # ARPACK's first product from the seed-0 start is the probe: reuse it
        if probe and np.array_equal(x, x0):
            return probe.pop()
        probe.clear()
        return apply(x)

    reusing = LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
    last_err: Optional[Exception] = None
    for seed in range(3):
        v0 = np.random.default_rng(seed).standard_normal(dim)
        try:
            vals = eigsh(reusing, k=1, which="LM", v0=v0, tol=1e-6,
                         return_eigenvectors=False)
            return float(abs(vals[0]))
        except ArpackNoConvergence as err:  # retry with a fresh start vector
            last_err = err
    raise RuntimeError(f"operator norm did not converge after 3 starts: {last_err}")


def rect_operator_norm(op: Union[np.ndarray, LinearOperator]) -> float:
    """Largest singular value of a matrix or LinearOperator (with rmatvec).

    A matrix with no side above _DENSE_EIG_CUTOFF goes to the dense 2-norm,
    one with a side at most the cutoff to eigvalsh of its Gram matrix on
    that side.  Otherwise sym_operator_norm of A^T A, as an operator.
    """
    from scipy.sparse.linalg import LinearOperator  # loaded on first use, not at package import

    if isinstance(op, np.ndarray):
        if max(op.shape) <= _DENSE_EIG_CUTOFF:
            return float(np.linalg.norm(op, 2))
        if min(op.shape) <= _DENSE_EIG_CUTOFF:
            # Gram matrix on the small side keeps the eigenproblem dense
            small = op @ op.T if op.shape[0] <= op.shape[1] else op.T @ op
            top = float(eigvalsh(small, check_finite=False)[-1])
            return sqrt(max(top, 0.0))
        op = LinearOperator(op.shape, matvec=op.__matmul__, rmatvec=op.T.__matmul__,
                            dtype=float)
    cols = op.shape[1]
    gram = LinearOperator((cols, cols), matvec=lambda v: op.rmatvec(op.matvec(v)),
                          dtype=float)
    return sqrt(max(sym_operator_norm(gram), 0.0))


# ----------------------------------------------------------------------
# Schur-complement condition checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchurReport:
    """Outcomes of the singleton-block and pair-block domination checks."""

    h11_psd: bool
    inverse_dominated: Optional[bool]
    projected_bound: Optional[bool]
    exact_schur: Optional[bool]
    degenerate: bool
    note: str


def schur_condition_check(
    blocks: Tuple[np.ndarray, np.ndarray, np.ndarray],
    params: WitnessParams,
    tol: float = 1e-8,
) -> SchurReport:
    """Check the four domination statements tying the blocks of H together.

    (i) H11 >= 0; (ii) H11^{-1} dominated by the mean/centered projector
    combination; (iii) H22 dominates the projected quadratic form of H12;
    (iv) the exact Schur condition H22 >= H12^T H11^{-1} H12.  Singular or
    ill-conditioned H11 and nonpositive coefficient denominators are
    reported as degenerate, never raised.
    """
    h11, h12, h22 = blocks
    n = h11.shape[0]
    if h11.shape != (n, n) or h12.shape[0] != n or h22.shape[0] != h12.shape[1]:
        raise ValueError("blocks have inconsistent shapes")
    a1 = params.alpha1
    den = n * (params.alpha2 * params.p - a1 * a1)
    h11_psd = psd_check(h11, tol=tol).psd

    if a1 <= 0.0:
        return SchurReport(h11_psd=h11_psd, inverse_dominated=None,
                           projected_bound=None, exact_schur=None,
                           degenerate=True, note="singular H11 path: alpha1 <= 0")
    if den <= 0.0:
        return SchurReport(h11_psd=h11_psd, inverse_dominated=None,
                           projected_bound=None, exact_schur=None,
                           degenerate=True,
                           note="nonpositive denominator n(alpha2 p - alpha1^2)")

    vals, vecs = eigh(h11, check_finite=False)
    if vals[0] <= 0.0 or vals[-1] / vals[0] > _COND_GUARD:
        note = "singular H11 path: " + (
            "H11 not positive definite" if vals[0] <= 0.0
            else f"condition number {vals[-1] / vals[0]:.3e} beyond guard"
        )
        return SchurReport(h11_psd=h11_psd, inverse_dominated=None,
                           projected_bound=None, exact_schur=None,
                           degenerate=True, note=note)
    h11_inv = (vecs / vals) @ vecs.T

    q = np.full((n, n), 1.0 / n)
    q_perp = np.eye(n) - q
    bound = q / den + (2.0 / a1) * q_perp
    inverse_dominated = psd_check(bound - h11_inv, tol=tol).psd

    qp_h12 = q_perp @ h12
    q_h12 = q @ h12
    rhs = (2.0 / a1) * (qp_h12.T @ qp_h12) + (q_h12.T @ q_h12) / den
    projected_bound = psd_check(h22 - rhs, tol=tol).psd

    exact = psd_check(h22 - h12.T @ h11_inv @ h12, tol=tol).psd
    return SchurReport(h11_psd=h11_psd, inverse_dominated=inverse_dominated,
                       projected_bound=projected_bound, exact_schur=exact,
                       degenerate=False, note="")


# ----------------------------------------------------------------------
# deterministic-condition evaluator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """The 3x3 dominance system: diagonal target Wbar, perturbation W,
    Sylvester minors of (Wbar - W with off-diagonal -W), and the three
    hypothesis booleans."""

    wbar: np.ndarray
    w: np.ndarray
    constant: float
    nbar: float
    sylvester: Tuple[float, float, float]
    alpha1_dominates: bool
    alpha2_p2_dominates: bool
    wbar_dominates: bool
    degenerate: bool
    note: str


def evaluate_W_conditions(n: int, params: WitnessParams, constant: float = 1.0) -> ConditionReport:
    """Fill the deterministic dominance system and its Sylvester minors.

    The degenerate state (alpha2 p - alpha1^2 <= 0, or alpha1 = 0) leaves W
    undefined; it is reported, not raised.
    """
    if n < 5:
        raise ValueError(f"condition evaluation needs n >= 5, got {n}")
    if constant <= 0:
        raise ValueError(f"constant must be positive, got {constant}")
    a1, a2, a3, a4 = params.alpha
    p = params.p
    nbar = n * log(n)
    spectrum = eigenvalues_expected_H22(n, params)
    wbar = np.diag([spectrum.lambda0, spectrum.lambda1, spectrum.lambda2])

    den = n * (a2 * p - a1 * a1)
    if den <= 0.0 or a1 <= 0.0:
        nan = float("nan")
        return ConditionReport(
            wbar=wbar, w=np.full((3, 3), nan), constant=constant, nbar=nbar,
            sylvester=(nan, nan, nan),
            alpha1_dominates=a1 >= 2 * a2 * p + 2 * a2 * sqrt(nbar),
            alpha2_p2_dominates=a2 * p * p >= a1 * a1,
            wbar_dominates=False, degenerate=True,
            note="alpha2 p - alpha1^2 <= 0 or alpha1 = 0: W entries undefined",
        )

    c = constant
    a3nb = a3 * nbar
    first_terms = c * a3 * sqrt(nbar) + c * a4 * nbar**1.5
    big = n**1.5 * a3 * p * p + 2 * sqrt(n) * a2 + c * a3nb
    w00 = first_terms + c * a3nb**2 / a1 + big**2 / den
    w01 = first_terms + (c / a1) * a3nb * (c * a3nb + sqrt(n) * a2) + big * (3 * a3nb) / den
    w02 = first_terms + c * a3nb**2 / a1 + (c / den) * big * a3nb
    w11 = first_terms + (2.0 / a1) * (c * a3nb + sqrt(n) * a2) ** 2 + c * a3nb**2 / den
    w12 = first_terms + (c / a1) * a3nb * (c * a3nb + sqrt(n) * a2) + c * a3nb**2 / den
    w22 = c * a3 * sqrt(nbar) + c * a4 * nbar + c * a3nb**2 / a1 + c * a3nb**2 / den
    w = np.array([[w00, w01, w02], [w01, w11, w12], [w02, w12, w22]])

    d = np.diagonal(wbar) - np.diagonal(w)
    minor1 = d[0]
    minor2 = d[0] * d[1] - w01 * w01
    full = np.array([
        [d[0], -w01, -w02],
        [-w01, d[1], -w12],
        [-w02, -w12, d[2]],
    ])
    minor3 = float(np.linalg.det(full))
    return ConditionReport(
        wbar=wbar, w=w, constant=constant, nbar=nbar,
        sylvester=(float(minor1), float(minor2), minor3),
        alpha1_dominates=a1 >= 2 * a2 * p + 2 * a2 * sqrt(nbar),
        alpha2_p2_dominates=a2 * p * p >= a1 * a1,
        wbar_dominates=bool(minor1 > 0 and minor2 > 0 and minor3 > 0),
        degenerate=False, note="",
    )
