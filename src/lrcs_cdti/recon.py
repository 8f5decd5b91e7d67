"""Three-step reconstruction: preliminary sparsity-only solve, phase-map
and diffusion-subspace estimation, then the ADMM recovery of the spatial
coefficient matrix under joint subspace and group-sparsity constraints.

The ADMM solves

    min_U ||d - A(U)||^2 + lambda ||Psi U V||_{1,2}

with A(U) = mask(F S [P o (U V)]).  V has orthonormal rows (V V^H = I,
which :func:`admm_solve` checks), so a row of Psi U V has the l2 norm of
the same row of Psi U, the group soft-threshold of (Psi U) V is that of
Psi U times V, and the penalty is lambda ||Psi U||_{1,2}, as in the
subspace-constrained group-sparse model (Zhao et al., IEEE TMI 2012).
The wavelet side therefore lives in U's L columns: the loop splits
G = Psi U, a group soft-threshold updates G, a conjugate-gradient solve
of

    (A* A + (rho/2) J) U = A*(d) + (rho/2) Psi^H(G - Y/rho),  J(U) = U V V^H

updates U, and a dual ascent updates Y; G, Y and the feasibility
residual Psi U - G are those of the N-column splitting G V = Psi U V
times V^H, and the residual has the same norm.  The threshold starts at
the largest initial transform coefficient, max |Psi U V|, and decays by
a fixed factor per iteration (``ALPHA_DECAY``); the penalty is
rho = lambda/alpha throughout.  That first threshold is an entrywise
maximum, which V does not keep, so it alone is taken of the N columns.

Every variant applies the CG operator as one shifted normal-operator
call between two products with V,

    H(U) = (A*A + (rho/2) I)(U V) V^H = (A* A + (rho/2) J) U,

with the shift added inside :func:`normal_matrix`; for the identity V
both products are skipped.  A CG step is that call plus in-place numpy
updates of the iterate and the residual.  The call writes X^T, the A*A
grid and the product into three buffers that each CG solve makes once
(:meth:`_Normal.operator`), and CG takes the product as its only
scratch buffer, so a step allocates no whole-grid array.

Method variants differ only in V and lambda, so all three run this one
loop: CS_ONLY (:func:`reconstruct_cs_only`) with the identity subspace
V = I and no phase map, LRCS (:func:`reconstruct_lrcs`) with the
estimated subspace and phase, and LR_ONLY as :func:`reconstruct_lrcs` at
lambda = 0, where the loop stops after its first step, a CG solve of
the subspace-constrained normal equations.  The rank is the row count
of V, and the run report names the variant from V and lambda.  The
rank is fixed, as in the partial-separability model: lr and lrcs take
the one they are given, which callers default to ``RANK``.  Every
method starts from one preliminary solve (:func:`preliminary`), which
also fixes the weight.

Sharing: one problem is one k-space set, one set of coil maps, one
weight and one rank.  The samples reach the solves only through A*(d),
which :func:`preliminary` makes once for the weight, the cs solves and,
through :func:`unphase`, the phased model; the :class:`Preliminary` it
returns carries that adjoint, the model, the weight and the rank, not
the samples, so the methods of :func:`recon` cannot be handed
another's.  Each solve's first step, the U0 solve (:func:`first_solve`),
depends on the model, V, A*(d) and the CG cap, not on lambda, and is
the start that :func:`admm_solve` requires.  Per problem, the cs
candidates of :func:`select_lambda` start from one U0 solve, and the
:class:`Preliminary` makes, on first use, the subspace and per phase
mode the solve model and the U0 solve.  lr is therefore the first solve
of lrcs at its phase mode, not a second solve.  Every shared result is
the one a cold solve computes, bit for bit.

Precision: the whole loop runs in the arithmetic of the encoding model
(``EncodingModel.dtype``, complex64): A*(d), V, the right-hand side,
the CG iterate and the operator it applies, and on the wavelet side
Psi U, G and the dual (the transform and the shrink compute in their
input's precision).  :func:`admm_solve` returns U as complex128,
so the phase map, subspace, tensor fit and containers see double
precision.

Stopping: every CG solve stops at the relative residual ``CG_TOL``,
about the smallest that complex64 CG reaches, or at its step cap.  The
caller of a solve picks the cap.  The U0 solve (rho = 0, from zero),
which is the whole of lr, runs up to ``SolverConfig.cg_max_iters``
steps.  Each solve inside the ADMM loop (shift rho/2 > 0, warm-started
from the last U) runs up to min(``cg_max_iters``, ``INNER_CG_CAP``):
an inexact U-update, whose early stop the loop's later iterations
absorb (Eckstein & Bertsekas, Math. Programming 1992; Boyd et al.,
Found. Trends ML 2011, 3.4.4).

Residual carrying: every A*A call in the solver is a CG step.  CG is
handed the residual rhs - H x0 of its starting point instead of
computing it: A*(d) for the U0 solve, which starts from zero, and for
each ADMM solve the previous solve's final residual, carried to the new
system as (rhs_k - rhs_{k-1}) + r - ((rho_k - rho_{k-1})/2) J(U), with
rho = 0 for the U0 system and J(U) = U V V^H taken as the same two
products with V that H applies.  The carried residual is recursive, so
it drifts from a recomputed one by float32 rounding; on the R=6
phantom the drift stays below 3e-7 of ||rhs|| with no growth over
iterations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .datamodel import CasoratiSeries, CoilMaps, PhaseMap
from .encoding import (EncodingModel, KSpaceData, adjoint_matrix, normal_matrix,
                       unphase, with_phase)
from .errors import NumericalError, ValidationError
from .transforms import WaveletSpec, group_shrink, series_adjoint, series_forward


class Method(str, Enum):
    CS_ONLY = "cs"
    LR_ONLY = "lr"
    LRCS = "lrcs"


class PhaseMode(str, Enum):
    NONE = "none"
    PROPOSED = "proposed"


# the factor by which the ADMM threshold alpha falls per iteration
ALPHA_DECAY = 1.55
# the relative residual at which CG stops: about 8 float32 epsilons,
# near where complex64 CG (EncodingModel.dtype) stalls
CG_TOL = 1e-6
# the CG step cap of each warm-started solve inside the ADMM loop, or
# SolverConfig.cg_max_iters if smaller (see the module notes): at 8 the
# R=6 lrcs bias moves by a sixth of what a cap of 6 moves it, for most
# of its speed
INNER_CG_CAP = 8
# how far V V^H may sit from I, per entry, for admm_solve: its wavelet
# side runs on U's L columns, which is exact for orthonormal rows; well
# above the rounding of a V stored in complex64
ORTHONORMAL_TOL = 1e-5
# the default subspace rank of lr and lrcs: the tensor model's unknowns
# per voxel (S0 and the six tensor entries), not a tuned value
RANK = 7
# the default weight of the plan and of `cli recon`, as a fraction of
# lambda_base: the middle of default_lambda_grid's scales
LAMBDA_SCALE = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    """ADMM/CG settings.  The method is not a setting: it follows from the
    subspace a solve is given and from ``lam`` (see :func:`admm_solve`).
    ``cg_max_iters`` caps the CG steps of the U0 solve; a solve inside the
    ADMM loop stops at min(``cg_max_iters``, ``INNER_CG_CAP``)."""

    lam: float = 0.0
    max_iters: int = 25
    cg_max_iters: int = 15

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.cg_max_iters < 1:
            raise ValidationError(f"cg_max_iters must be >= 1, got {self.cg_max_iters}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")


@dataclass
class RunReport:
    """Per-iteration solver accounting, serializable to the run-report JSON.
    An iteration's penalty rho is ``lam`` over its threshold in ``alphas``."""

    method: str
    lam: float
    rank: int
    delta_u: list = field(default_factory=list)
    feasibility: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)
    cg_residuals: list = field(default_factory=list)
    stop_reason: str = ""
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {"method": self.method, "lambda": self.lam, "rank": self.rank,
                "delta_u": self.delta_u, "feasibility": self.feasibility,
                "alpha": self.alphas,
                "cg_iterations": self.cg_iters, "cg_residual": self.cg_residuals,
                "stop_reason": self.stop_reason,
                "wall_time_s": self.wall_time_s}


@dataclass(frozen=True)
class ReconResult:
    series: CasoratiSeries
    report: RunReport


class _NonFiniteCG(NumericalError):
    """CG met a NaN/Inf; admm_solve reports it as a non-finite iterate."""


def cg_solve(apply_h, rhs: np.ndarray, x0: np.ndarray, tol: float,
             max_iters: int, r: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients on a Hermitian positive (semi)definite system.

    Works in the precision of ``rhs`` and ``x0`` together (complex64 in
    the ADMM); the step scalars are Python floats.  Returns (solution,
    iterations, relative residual); ``apply_h`` runs once per iteration.
    The iterate and the residual are updated in place by numpy, and the
    product H p is the only scratch buffer: once it has updated the
    residual it is dead, so it takes step * p on its way into the
    iterate.  CG owns that product: it works on a copy when ``apply_h``
    returns an array that is read-only, not in the working precision, or
    that may share memory with its argument (``lambda v: v``).

    ``r`` is the initial residual rhs - H x0, known to the caller, so CG
    does not apply H to ``x0``.  CG updates it in place as its own
    residual, and on every return leaves in it the residual rhs - H x of
    the returned x (recursively updated, so equal to a recomputed one up
    to rounding), ready to carry into the next solve.  It must be a
    writeable, C-contiguous array of the shape of ``rhs`` in the working
    precision, which the updates and inner products stream over without
    a copy; anything else is a ValidationError.  Divergence
    (residual growing three consecutive iterations while sitting well
    above the best residual seen; plain CG residuals are allowed their
    usual non-monotone jitter) raises NumericalError with the residual
    history attached, and so does a NaN/Inf residual or curvature
    p^H H p, at the step that meets it, so a non-finite operator costs
    one call, not ``max_iters``.
    """
    dtype = np.result_type(rhs, x0)
    if not (r.dtype == dtype and r.shape == rhs.shape
            and r.flags.c_contiguous and r.flags.writeable):
        raise ValidationError(
            f"CG residual must be a writeable C-contiguous {dtype} array "
            f"of shape {rhs.shape}, got {r.dtype} {r.shape}")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        r[...] = 0
        return np.zeros_like(rhs), 0, 0.0
    x = np.array(x0, dtype=dtype, order="C")
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    history = [np.sqrt(rs) / rhs_norm]

    def non_finite(it):
        return _NonFiniteCG(f"NaN/Inf in CG at iteration {it}",
                            diagnostics={"residuals": history, "iteration": it})
    if not np.isfinite(rs):
        raise non_finite(0)
    best = history[0]
    grows = 0
    for it in range(max_iters):
        if np.sqrt(rs) / rhs_norm < tol:
            return x, it, history[-1]
        hp = apply_h(p)
        if (hp.dtype != dtype or not hp.flags.writeable
                or np.may_share_memory(hp, p)):
            hp = np.array(hp, dtype=dtype)
        denom = float(np.vdot(p, hp).real)
        if not np.isfinite(denom):
            raise non_finite(it)
        if denom <= 0:
            # numerically singular direction; stop at the current iterate
            return x, it, history[-1]
        step = rs / denom
        # r -= step H p, then the spent product takes step p for x
        hp *= step
        r -= hp
        np.multiply(p, step, out=hp)
        x += hp
        rs_new = float(np.vdot(r, r).real)
        history.append(np.sqrt(rs_new) / rhs_norm)
        if not np.isfinite(rs_new):
            raise non_finite(it)
        if history[-1] > history[-2]:
            grows += 1
            if grows >= 3 and history[-1] > 10.0 * best:
                raise NumericalError(
                    "CG diverged: residual increased 3 consecutive iterations",
                    diagnostics={"residuals": history, "iteration": it})
        else:
            grows = 0
        best = min(best, history[-1])
        p *= rs_new / rs
        p += r
        rs = rs_new
    return x, max_iters, history[-1]


class _Normal:
    """The normal equations of one model and subspace V (in the model's
    dtype) on the (L, M) iterate U^T: :meth:`operator` is
    H = conj(V) (A*A + shift I) V^T, :meth:`scaled_gram` a multiple of
    J = conj(V) V^T, and :meth:`solve` runs CG on H (see
    :func:`admm_solve`); for the identity V the products with V are
    skipped."""

    def __init__(self, model: EncodingModel, v: np.ndarray):
        self.model = model
        self.identity = v.shape[0] == v.shape[1] and np.array_equal(v, np.eye(v.shape[0]))
        self.vt, self.v_conj = np.ascontiguousarray(v.T), v.conj()

    def project(self, xt):
        """conj(V) X^T; X^T itself for the identity V."""
        return xt if self.identity else np.matmul(self.v_conj, xt)

    def operator(self, shift):
        """H at ``shift`` as a function of U^T.  It writes X^T, the A*A
        grid and the projected product into buffers made here and reused
        by every call, so a CG step allocates no whole-grid array; CG
        takes the product as its scratch, which the next call
        overwrites.  The buffers die with the operator, at the end of
        its solve."""
        model = self.model
        nx, ny, nz = model.spatial_dims
        grid = np.empty((model.n_columns, nz, ny, nx), dtype=model.dtype)
        if self.identity:
            return lambda ut: normal_matrix(model, ut.T, shift, out=grid).T
        xt = np.empty((model.n_columns, model.n_voxels), dtype=model.dtype)
        hu = np.empty((self.vt.shape[1], model.n_voxels), dtype=model.dtype)

        def apply_h(ut):
            np.matmul(self.vt, ut, out=xt)
            hx = normal_matrix(model, xt.T, shift, out=grid)
            return np.matmul(self.v_conj, hx.T, out=hu)
        return apply_h

    def scaled_gram(self, ut, scale):
        """scale J(U^T), the same two products with V as H applies."""
        if self.identity:
            return scale * ut
        ju = self.project(np.matmul(self.vt, ut))
        return np.multiply(scale, ju, out=ju)

    def solve(self, iteration, shift, rhs, x0, r, max_iters):
        try:
            return cg_solve(self.operator(shift), rhs, x0, CG_TOL, max_iters, r)
        except _NonFiniteCG as exc:
            raise NumericalError("NaN/Inf in ADMM iterate",
                                 diagnostics={"iteration": iteration}) from exc


@dataclass(frozen=True)
class FirstSolve:
    """The U0 solve that :func:`admm_solve` starts from: CG from zero on
    the data-consistency-only system (rho = 0) of one model, subspace V,
    k-space set and CG cap.  Lambda does not enter it, so every solve of
    one such problem can start from one: lr and lrcs at one phase mode,
    and the cs candidates of :func:`select_lambda`.  Its arrays are
    read-only; :func:`admm_solve` copies what it updates."""

    rhs: np.ndarray         # conj(V) A*(d), (L, M): the system's right-hand side
    u: np.ndarray           # U0^T, (L, M), in the model's dtype
    r: np.ndarray           # rhs - H U0^T, carried into the first ADMM solve
    cg_iters: int
    cg_residual: float
    wall_s: float


def first_solve(model: EncodingModel, v_basis: np.ndarray, adj: np.ndarray,
                cfg: SolverConfig) -> FirstSolve:
    """The U0 solve of :func:`admm_solve` on ``model`` and the subspace
    ``v_basis``, from ``adj`` = A*(d), the (M, N) adjoint of the k-space
    on ``model`` (its phase included).  It stops at ``CG_TOL`` or after
    ``cfg.cg_max_iters`` steps; ``INNER_CG_CAP`` does not apply to it.
    A non-finite U0 raises NumericalError for iteration 0."""
    t0 = time.perf_counter()
    normal = _Normal(model, np.asarray(v_basis, dtype=model.dtype))
    rhs = normal.project(adj.T)
    # the solve starts from zero, so its residual is the right-hand side
    r = rhs.copy()
    u, cg_it, cg_res = normal.solve(0, 0.0, rhs, np.zeros_like(rhs), r,
                                    cfg.cg_max_iters)
    _check_finite(float(np.linalg.norm(u)), 0)
    for a in (rhs, u, r):
        a.flags.writeable = False
    return FirstSolve(rhs, u, r, cg_it, cg_res, time.perf_counter() - t0)


def admm_solve(model: EncodingModel, v_basis: np.ndarray, cfg: SolverConfig,
               start: FirstSolve) -> tuple[np.ndarray, RunReport]:
    """Run the splitting loop; returns the spatial coefficients U (M x L)
    in complex128 (iterated in ``model.dtype``).

    The loop starts from ``start``, the U0 solve (:func:`first_solve`)
    of this model, V and CG cap on A*(d); one of another shape is a
    ValidationError.  The report counts the U0 solve: its CG iterations
    and residual come first, and its time is part of ``wall_time_s``.

    Each CG solve of the loop starts from the last U and stops at
    ``CG_TOL`` or after min(``cfg.cg_max_iters``, ``INNER_CG_CAP``)
    steps (see the module notes).

    The iterate is U^T, (L, M) and C-contiguous, so X^T = V^T U^T is the
    (N, nz, ny, nx) grid of :func:`normal_matrix` with no copy, and every
    product with V is one (N x L)(L x M) or (L x N)(N x M) matrix
    product.  On the iterate, every variant's CG operator is
    conj(V) (A*A + (rho/2) I)(V^T U^T), and J is conj(V) V^T U^T, the
    same two products (see the module notes); with the identity V both
    are skipped.  The wavelet side transforms, shrinks and
    back-projects the L columns of U, not the N of X = U V: for V with
    orthonormal rows each row norm of (Psi U) V is that of Psi U, so
    shrink((Psi U + W) V) = shrink(Psi U + W) V, and G, the dual and the
    feasibility residual stay in V's row space.  The one exception is
    the first threshold, max |Psi U V|, an entrywise maximum, which is
    taken of (Psi U) V once.  The dual is kept scaled, W = Y / rho, and
    rescaled when rho changes.  A V whose rows are not orthonormal to
    ``ORTHONORMAL_TOL`` is a ValidationError, raised before any solve.

    A non-finite iterate raises NumericalError with its iteration.  The
    check reads ||U_next - U||, the step size the report records, which
    is non-finite whenever U_next (or U) is; U0 is checked by its norm
    in :func:`first_solve`, as iteration 0.  A CG solve that meets a
    NaN/Inf stops there and raises the same error for its iteration, with
    CG's own error (and its residual history) as the cause.

    The report names the variant the arguments make: cs for the identity
    subspace, lr for lambda = 0, lrcs otherwise.
    """
    v = np.asarray(v_basis, dtype=model.dtype)
    _check_orthonormal_rows(v_basis)
    if start.u.shape != (v.shape[0], model.n_voxels):
        raise ValidationError(f"start of shape {start.u.shape} does not match "
                              f"rank {v.shape[0]} on {model.n_voxels} voxels")
    # the clock starts the U0 solve's time ago
    t0 = time.perf_counter() - start.wall_s
    normal = _Normal(model, v)
    inner_cap = min(cfg.cg_max_iters, INNER_CG_CAP)
    variant = (Method.CS_ONLY if normal.identity
               else Method.LR_ONLY if cfg.lam == 0.0 else Method.LRCS)
    report = RunReport(method=variant.value, lam=cfg.lam, rank=v.shape[0])
    spec = WaveletSpec(dims=model.spatial_dims)

    u = start.u
    report.cg_iters.append(start.cg_iters)
    report.cg_residuals.append(start.cg_residual)

    if cfg.lam == 0.0:
        report.stop_reason = "pure least squares (lambda = 0)"
        return _finish(u, report, t0)

    # Psi U, (M, L); the first threshold is an entrywise maximum of
    # Psi U V, which V does not keep, so it alone is taken of the N columns
    bu = series_forward(u.T, spec)
    alpha = float(np.abs(bu @ v).max())
    if alpha == 0.0:
        report.stop_reason = "zero data"
        return _finish(u, report, t0)

    # the loop updates u and r in place: its own copies of the start's
    u, r = u.copy(), start.r.copy()
    w = np.zeros_like(bu)
    # r is the residual of u in the last system solved, whose rho is
    # rho_sys; at first U0's, which has rho = 0
    rhs_prev, rho_sys = start.rhs, 0.0
    for k in range(cfg.max_iters):
        # a Python float, so that a numpy lam cannot promote the loop's
        # arrays out of the model's precision
        rho = float(cfg.lam / alpha)
        # the scaled dual follows rho; at k = 0 it is still all zeros
        w *= rho_sys / rho
        # bu is spent: it takes Psi U + W, then G - W, and dies once
        # back-projected, before the CG solve
        bu += w
        g = group_shrink(bu, alpha)
        np.subtract(g, w, out=bu)
        # the scaling pass also brings the back-projection to C order
        rhs = np.multiply(series_adjoint(bu, spec).T, rho / 2.0, order="C")
        del bu
        rhs += start.rhs

        # carry the residual of u from the previous system to this one:
        # rhs_k - H_k u = (rhs_k - rhs_prev) + r - ((rho - rho_sys)/2) J(u);
        # rhs_prev is spent here, and takes the difference unless it is
        # the start's (read-only) right-hand side
        r += np.subtract(rhs, rhs_prev, out=None if k == 0 else rhs_prev)
        r -= normal.scaled_gram(u, (rho - rho_sys) / 2.0)
        rhs_prev, rho_sys = rhs, rho
        u_next, cg_it, cg_res = normal.solve(k, rho / 2.0, rhs, u, r, inner_cap)
        # u is spent: its buffer takes the step U_next - U, negated
        u -= u_next
        delta = float(np.linalg.norm(u))
        _check_finite(delta, k)
        u = u_next
        bu = series_forward(u.T, spec)
        # g becomes the feasibility residual Psi U - G, whose norm is
        # that of Psi U V - G V
        np.subtract(bu, g, out=g)
        w += g
        report.delta_u.append(delta)
        report.feasibility.append(float(np.linalg.norm(g)))
        report.alphas.append(alpha)
        report.cg_iters.append(cg_it)
        report.cg_residuals.append(cg_res)
        alpha /= ALPHA_DECAY
    report.stop_reason = f"iteration cap K = {cfg.max_iters}"
    return _finish(u, report, t0)


def _check_orthonormal_rows(v_basis: np.ndarray) -> None:
    """V V^H = I to ``ORTHONORMAL_TOL`` per entry, the condition under
    which :func:`admm_solve` may run its wavelet side on U's columns."""
    v = np.asarray(v_basis, dtype=np.complex128)
    gram = v @ v.conj().T
    dev = float(np.abs(gram - np.eye(len(gram))).max(initial=0.0))
    if not dev <= ORTHONORMAL_TOL:
        raise ValidationError(
            f"subspace basis V must have orthonormal rows: V V^H deviates "
            f"from I by {dev:.3e} (> {ORTHONORMAL_TOL:g})")


def _check_finite(norm: float, iteration: int) -> None:
    """The iterate whose norm (or step norm) is ``norm`` must be finite."""
    if not np.isfinite(norm):
        raise NumericalError("NaN/Inf in ADMM iterate",
                             diagnostics={"iteration": iteration})


def _finish(ut: np.ndarray, report: RunReport,
            t0: float) -> tuple[np.ndarray, RunReport]:
    """Stamp the wall time; U leaves the solver as a C-ordered (M, L)
    complex128 array."""
    report.wall_time_s = time.perf_counter() - t0
    return np.ascontiguousarray(ut.T, dtype=np.complex128), report


def reconstruct_cs_only(d: KSpaceData, model: EncodingModel, cfg: SolverConfig,
                        start: FirstSolve | None = None) -> ReconResult:
    """Sparsity-only preliminary reconstruction (identity subspace, no
    phase in the model) from ``start``, else from the U0 solve of ``d``."""
    if model.phase is not None:
        raise ValidationError("CS-only reconstruction requires a phase-free model")
    v = _identity(model)
    if start is None:
        start = first_solve(model, v, adjoint_matrix(model, d.samples), cfg)
    u, report = admm_solve(model, v, cfg, start)
    series = CasoratiSeries(u, model.spatial_dims, model.mask.column_labels)
    return ReconResult(series, report)


def _identity(model: EncodingModel) -> np.ndarray:
    """The subspace of cs: V = I over the model's columns."""
    return np.eye(model.n_columns, dtype=np.complex128)


def reconstruct_lrcs(model: EncodingModel, v_basis: np.ndarray, cfg: SolverConfig,
                     start: FirstSolve) -> ReconResult:
    """Joint subspace + group-sparsity solve on ``model`` from ``start``;
    returns X = P o (U V) in complex128, with P the model's one copy of
    its phase map, in complex64 (X = U V on a phase-free model).  At
    ``cfg.lam`` = 0 it is the subspace-constrained least squares of lr;
    :func:`admm_solve` checks the start and rejects a V whose rows are
    not orthonormal."""
    v = np.asarray(v_basis, dtype=np.complex128)
    u, report = admm_solve(model, v, cfg, start)
    x = u @ v
    if model.phase is not None:
        np.multiply(model.phase.values, x, out=x)
    series = CasoratiSeries(x, model.spatial_dims, model.mask.column_labels)
    return ReconResult(series, report)


@dataclass(frozen=True)
class Preliminary(ReconResult):
    """One reconstruction problem and its preliminary solve (see
    :func:`preliminary`): its phase-free ``model``, ``cfg`` at the
    weight, the ``rank`` of lr and lrcs, and ``adj``, the adjoint A*(d)
    on ``model``, in place of the samples.  What the methods of
    :func:`recon` share from it is made on first use: the
    :attr:`subspace`, and per phase mode the solve model and the U0
    solve (:meth:`setup`).  It keeps no reconstruction but its own.  It
    is not locked: one caller (in the pipeline, one subject's thread)
    owns it."""

    model: EncodingModel = field(repr=False)
    cfg: SolverConfig
    rank: int
    adj: np.ndarray = field(repr=False)
    _setups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def subspace(self) -> np.ndarray:
        """The rank-``rank`` subspace of the preliminary's magnitude."""
        return estimate_subspace(self.series, self.rank)

    def setup(self, mode: PhaseMode) -> tuple[EncodingModel, FirstSolve]:
        """The model that lr and lrcs solve on at ``mode`` (with the
        preliminary's phase map for ``proposed``, ``model`` itself for
        ``none``) and their U0 solve on the :attr:`subspace`, made on
        first use.  The phased model is :func:`encoding.with_phase` of
        ``model``: it shares ``model``'s coil and line fields, and keeps
        the phase map once, in complex64.  A step that raises keeps
        nothing of the mode, so the next caller runs it again and meets
        its own error."""
        if mode not in self._setups:
            model = self.model
            if mode == PhaseMode.PROPOSED:
                model = with_phase(model, estimate_phase_map(self.series))
            start = first_solve(model, self.subspace, unphase(model, self.adj),
                                self.cfg)
            self._setups[mode] = model, start
        return self._setups[mode]


def recon(prelim: Preliminary, method: Method | str,
          mode: PhaseMode | str) -> ReconResult:
    """Run one reconstruction method on the problem of ``prelim``.

    CS_ONLY returns ``prelim`` as is.  LR_ONLY and LRCS take the phase
    map of ``mode`` (the preliminary's own phase, or none for the
    uncorrected comparison) and the preliminary's subspace, and solve
    with its ``cfg``; LR_ONLY at lambda = 0.  What they share is made
    once per ``prelim`` (:meth:`Preliminary.setup`), so lr is the first
    solve of lrcs at its phase mode, whichever runs first.
    """
    method, mode = Method(method), PhaseMode(mode)
    if method == Method.CS_ONLY:
        return prelim
    model, start = prelim.setup(mode)
    cfg = replace(prelim.cfg, lam=0.0) if method == Method.LR_ONLY else prelim.cfg
    return reconstruct_lrcs(model, prelim.subspace, cfg, start)


def estimate_phase_map(series: CasoratiSeries) -> PhaseMap:
    """Entrywise unit-magnitude phase of the preliminary reconstruction;
    zeros map to 1."""
    x = series.data
    if not np.isfinite(x).all():
        raise ValidationError("non-finite entries in the preliminary reconstruction")
    mag = np.abs(x)
    values = np.where(mag > 0, x / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)
    return PhaseMap(values)


def estimate_subspace(series: CasoratiSeries, rank: int) -> np.ndarray:
    """Transposed L most significant right singular vectors of |X|."""
    n = series.n_columns
    if not 1 <= rank <= n:
        raise ValidationError(f"rank must be in [1, {n}], got {rank}")
    _, _, vt = np.linalg.svd(series.magnitude(), full_matrices=False)
    return vt[:rank].astype(np.complex128)


def lambda_base(d: KSpaceData, model: EncodingModel,
                adj: np.ndarray | None = None) -> float:
    """Scale anchor for regularization weights: max |Psi A*(d)|; ``adj``
    is A*(d) when the caller holds it."""
    if adj is None:
        adj = adjoint_matrix(model, d.samples)
    spec = WaveletSpec(dims=model.spatial_dims)
    return float(np.abs(series_forward(adj, spec)).max())


def default_lambda_grid(base: float) -> list[float]:
    """{1e-3, 1e-2, 1e-1} x ``base``, the :func:`lambda_base` of the data."""
    return [base * s for s in (1e-3, 1e-2, 1e-1)]


def select_lambda(d: KSpaceData, model: EncodingModel, candidates,
                  cfg: SolverConfig, start: FirstSolve) -> tuple[float, ReconResult]:
    """The candidate weight whose preliminary reconstruction X is the most
    low-rank once its phase is corrected, and its :func:`reconstruct_cs_only`
    solve with ``cfg`` at that weight.  The proposed correction conj(P) o X,
    with P = X / |X|, is |X|, so the criterion is the least nuclear norm of
    |X| and no phase map is made.  Every candidate starts from ``start``,
    the U0 solve on the identity subspace (see :func:`admm_solve`)."""
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("empty lambda candidate list")
    results = [reconstruct_cs_only(d, model, replace(cfg, lam=float(lam)), start)
               for lam in candidates]
    best = int(np.argmin([np.linalg.svd(r.series.magnitude(), compute_uv=False).sum()
                          for r in results]))
    return float(candidates[best]), results[best]


def preliminary(d: KSpaceData, coils: CoilMaps, cfg: SolverConfig, rank: int,
                lam: float | None = None,
                scale: float | None = None) -> Preliminary:
    """The problem of ``d`` on ``coils`` at rank ``rank``: the
    regularization weight and the sparsity-only preliminary solve at it,
    which every method of :func:`recon` starts from.

    The solve runs on the phase-free model of ``coils`` and the mask of
    ``d``.  The weight is ``lam`` if given, else ``scale`` x
    :func:`lambda_base`, else the nuclear-norm choice of
    :func:`select_lambda` over :func:`default_lambda_grid`, whose winning
    solve is the preliminary.  It makes no phase map: the problem's one
    phase map is the :class:`Preliminary`'s.  One adjoint A*(d) serves
    the weight, the cs solves (which all start from one U0 solve) and,
    kept on the :class:`Preliminary`, the methods of :func:`recon`.
    Returns the preliminary, which carries the model, ``cfg`` at the
    weight, ``rank`` and the adjoint, not ``d``.  K-space of another
    grid or coil count than the coil maps, a rank outside [1, N] for N
    columns, and a given or scaled weight that is not finite and >= 0
    are ValidationErrors, raised before any solve.
    """
    if d.spatial_dims != coils.spatial_dims or d.n_coils != coils.n_coils:
        raise ValidationError(
            f"k-space of grid {d.spatial_dims} with {d.n_coils} coil(s) does not match "
            f"coil maps of grid {coils.spatial_dims} with {coils.n_coils}")
    n = len(d.mask.column_labels)
    if not 1 <= rank <= n:
        raise ValidationError(f"rank must be in [1, {n}], got {rank}")
    model = EncodingModel(coils, d.mask)
    adj = adjoint_matrix(model, d.samples)
    if lam is None and scale is not None:
        lam = scale * lambda_base(d, model, adj)
    if lam is not None:
        # a weight that SolverConfig rejects fails before any solve
        cfg = replace(cfg, lam=lam)
    start = first_solve(model, _identity(model), adj, cfg)
    if lam is None:
        lam, result = select_lambda(
            d, model, default_lambda_grid(lambda_base(d, model, adj)), cfg, start)
        cfg = replace(cfg, lam=lam)
    else:
        result = reconstruct_cs_only(d, model, cfg, start)
    return Preliminary(result.series, result.report, model, cfg, rank, adj)
