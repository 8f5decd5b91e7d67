"""Three-step reconstruction: preliminary sparsity-only solve, phase-map
and diffusion-subspace estimation, then the ADMM recovery of the spatial
coefficient matrix under joint subspace and group-sparsity constraints.

The ADMM solves

    min_U ||d - A(U)||^2 + lambda ||Psi U V||_{1,2}

with A(U) = mask(F S [P o (U V)]) by splitting G = Psi U V: a group
soft-threshold updates G, a conjugate-gradient solve of

    (A* A + (rho/2) J) U = A*(d) + (rho/2) B*(G - Y/rho),  J(U) = U V V^H

updates U, and a dual ascent updates Y.  The threshold starts at the
largest initial transform coefficient and decays by a fixed factor per
iteration; the penalty is rho = lambda/alpha throughout.

Method variants differ only in V and lambda, so all three run this one
loop: CS_ONLY (:func:`reconstruct_cs_only`) with the identity subspace
V = I and no phase map, LRCS (:func:`reconstruct_lrcs`) with the
estimated subspace and phase, and LR_ONLY as :func:`reconstruct_lrcs` at
lambda = 0, where the loop stops after its first step, a CG solve of
the subspace-constrained normal equations.  The rank is the row count
of V, and the run report names the variant from V and lambda.  Every
method starts from one preliminary solve (:func:`preliminary`), which
also fixes the weight.

Precision: the whole loop runs in the arithmetic of the encoding model
(``EncodingModel.dtype``, complex64): A*(d), V, V V^H, the right-hand
side, the CG iterate and the operator it applies, and on the wavelet
side Psi U V, G and the dual (the transform and the shrink compute in
their input's precision).  :func:`admm_solve` returns U as complex128,
so the phase map, subspace, tensor fit and containers see double
precision.  The CG tolerance has a floor, ``CG_TOL_FLOOR``, that
complex64 CG can reach.

Residual carrying: every A*A call in the solver is a CG step.  CG is
handed the residual rhs - H x0 of its starting point instead of
computing it: A*(d) for the U0 solve, which starts from zero, and for
each ADMM solve the previous solve's final residual, carried to the new
system as (rhs_k - rhs_{k-1}) + r - ((rho_k - rho_{k-1})/2) J(U), with
rho = 0 for the U0 system.  The carried residual is recursive, so it
drifts from a recomputed one by float32 rounding; on the R=6 phantom
the drift stays below 3e-7 of ||rhs|| with no growth over iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .datamodel import CasoratiSeries, PhaseMap
from .encoding import (EncodingModel, KSpaceData, adjoint_matrix, ifft2c,
                       normal_matrix, zero_fill)
from .errors import NumericalError, ValidationError
from .transforms import WaveletSpec, group_shrink, series_adjoint, series_forward


class Method(str, Enum):
    CS_ONLY = "cs"
    LR_ONLY = "lr"
    LRCS = "lrcs"


class PhaseMode(str, Enum):
    NONE = "none"
    LOWRES = "lowres"
    PROPOSED = "proposed"


# about 8 float32 epsilons: complex64 CG (EncodingModel.dtype) stalls
# near here, so a smaller tolerance could only run to the step cap or
# stagnate into the divergence check
CG_TOL_FLOOR = 1e-6


@dataclass(frozen=True)
class SolverConfig:
    """ADMM/CG settings.  The method is not a setting: it follows from the
    subspace a solve is given and from ``lam`` (see :func:`admm_solve`)."""

    lam: float = 0.0
    alpha_decay: float = 1.55
    max_iters: int = 25
    cg_max_iters: int = 15
    cg_tol: float = 1e-6

    def __post_init__(self):
        if self.alpha_decay <= 1:
            raise ValidationError(f"alpha_decay must exceed 1, got {self.alpha_decay}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.lam < 0:
            raise ValidationError(f"lambda must be >= 0, got {self.lam}")
        if self.cg_tol < CG_TOL_FLOOR:
            raise ValidationError(
                f"cg_tol {self.cg_tol:g} is below {CG_TOL_FLOOR:g}, the smallest "
                f"relative CG residual the complex64 solver arithmetic reaches")


@dataclass
class RunReport:
    """Per-iteration solver accounting, serializable to the run-report JSON."""

    method: str
    lam: float
    rank: int
    delta_u: list = field(default_factory=list)
    feasibility: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    rhos: list = field(default_factory=list)
    cg_iters: list = field(default_factory=list)
    cg_residuals: list = field(default_factory=list)
    stop_reason: str = ""
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        return {"method": self.method, "lambda": self.lam, "rank": self.rank,
                "delta_u": self.delta_u, "feasibility": self.feasibility,
                "alpha": self.alphas, "rho": self.rhos,
                "cg_iterations": self.cg_iters, "cg_residual": self.cg_residuals,
                "stop_reason": self.stop_reason,
                "wall_time_s": self.wall_time_s}


@dataclass(frozen=True)
class ReconResult:
    series: CasoratiSeries
    report: RunReport
    U: np.ndarray | None = None
    V: np.ndarray | None = None


def cg_solve(apply_h, rhs: np.ndarray, x0: np.ndarray, tol: float,
             max_iters: int,
             r: np.ndarray | None = None) -> tuple[np.ndarray, int, float]:
    """Conjugate gradients on a Hermitian positive (semi)definite system.

    Works in the dtype of ``rhs`` and ``x0`` (complex64 in the ADMM);
    the step scalars are Python floats.  Returns (solution, iterations,
    relative residual); ``apply_h`` runs once per iteration.

    ``r``, if given, is the initial residual rhs - H x0, known to the
    caller, so CG does not apply H to ``x0``.  CG then updates it in
    place as its own residual, and on every return leaves in it the
    residual rhs - H x of the returned x (recursively updated, so equal
    to a recomputed one up to rounding), ready to carry into the next
    solve.  Divergence
    (residual growing three consecutive iterations while sitting well
    above the best residual seen; plain CG residuals are allowed their
    usual non-monotone jitter) raises NumericalError with the residual
    history attached.
    """
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        if r is not None:
            r[...] = 0
        return np.zeros_like(rhs), 0, 0.0
    x = x0.copy()
    if r is None:
        r = rhs - apply_h(x)
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    history = [np.sqrt(rs) / rhs_norm]
    best = history[0]
    grows = 0
    for it in range(max_iters):
        if np.sqrt(rs) / rhs_norm < tol:
            return x, it, history[-1]
        hp = apply_h(p)
        denom = float(np.vdot(p, hp).real)
        if denom <= 0:
            # numerically singular direction; stop at the current iterate
            return x, it, history[-1]
        step = rs / denom
        x += step * p
        r -= step * hp
        rs_new = float(np.vdot(r, r).real)
        history.append(np.sqrt(rs_new) / rhs_norm)
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


def admm_solve(d: KSpaceData, model: EncodingModel, v_basis: np.ndarray,
               cfg: SolverConfig, spec: WaveletSpec) -> tuple[np.ndarray, RunReport]:
    """Run the splitting loop; returns the spatial coefficients U (M x L)
    in complex128 (iterated in ``model.dtype``).

    The iterate is U^T, (L, M) and C-contiguous, so X^T = V^T U^T is the
    (N, nz, ny, nx) grid of :func:`normal_matrix` with no copy, and every
    product with V is one (N x L)(L x M) or (L x N)(N x M) matrix
    product.  The wavelet side transforms the L columns of U, not the N
    of X: Psi(U V) = (Psi U) V and Psi^H(W) V^H = Psi^H(W V^H).  The dual
    is kept scaled, W = Y / rho, and rescaled when rho changes.

    The report names the variant the arguments make: cs for the identity
    subspace, lr for lambda = 0, lrcs otherwise.
    """
    t0 = time.perf_counter()
    v = np.asarray(v_basis, dtype=model.dtype)
    identity_v = v.shape[0] == v.shape[1] and np.array_equal(v, np.eye(v.shape[0]))
    vt = np.ascontiguousarray(v.T)
    v_conj = v.conj()
    vh = v_conj.T
    variant = (Method.CS_ONLY if identity_v
               else Method.LR_ONLY if cfg.lam == 0.0 else Method.LRCS)
    report = RunReport(method=variant.value, lam=cfg.lam, rank=v.shape[0])

    def normal_t(xt):
        return normal_matrix(model, xt.T).T

    if identity_v:
        a_star_d = adjoint_matrix(model, d.samples).T
        apply_data = normal_t

        def transform(ut):
            return series_forward(ut.T, spec)

        def back_project(w):
            return series_adjoint(w, spec).T
    else:
        a_star_d = v_conj @ adjoint_matrix(model, d.samples).T
        gram = v_conj @ vt

        def apply_data(ut):
            return v_conj @ normal_t(vt @ ut)

        def transform(ut):
            return series_forward(ut.T, spec) @ v

        def back_project(w):
            return series_adjoint(w @ vh, spec).T

    # U0: data-consistency-only solve from zero, whose residual is A*(d)
    r = a_star_d.copy()
    u, cg_it, cg_res = cg_solve(apply_data, a_star_d, np.zeros_like(a_star_d),
                                cfg.cg_tol, cfg.cg_max_iters, r=r)
    report.cg_iters.append(cg_it)
    report.cg_residuals.append(cg_res)

    if cfg.lam == 0.0:
        report.stop_reason = "pure least squares (lambda = 0)"
        return _finish(u, report, t0)

    bu = transform(u)
    alpha = float(np.abs(bu).max())
    if alpha == 0.0:
        report.stop_reason = "zero data"
        return _finish(u, report, t0)

    w = np.zeros_like(bu)
    rho_prev = None
    # r is the residual of u in the last system solved; at first U0's,
    # which has rho = 0
    rhs_prev, rho_sys = a_star_d, 0.0
    for k in range(cfg.max_iters):
        rho = cfg.lam / alpha
        if rho_prev is not None:
            w *= rho_prev / rho
        g = group_shrink(bu + w, alpha)
        # the scaling pass also brings the back-projection to C order
        rhs = np.multiply(back_project(g - w), rho / 2.0, order="C")
        rhs += a_star_d

        if identity_v:
            def apply_h(x, _rho=rho):
                return apply_data(x) + (_rho / 2.0) * x
        else:
            def apply_h(x, _rho=rho):
                return apply_data(x) + (_rho / 2.0) * (gram @ x)

        # carry the residual of u from the previous system to this one:
        # rhs_k - H_k u = (rhs_k - rhs_prev) + r - ((rho - rho_sys)/2) J(u)
        r += rhs - rhs_prev
        r -= ((rho - rho_sys) / 2.0) * (u if identity_v else gram @ u)
        u_next, cg_it, cg_res = cg_solve(apply_h, rhs, u, cfg.cg_tol,
                                         cfg.cg_max_iters, r=r)
        rhs_prev, rho_sys = rhs, rho
        if not np.isfinite(u_next).all():
            raise NumericalError("NaN/Inf in ADMM iterate",
                                 diagnostics={"iteration": k})
        bu = transform(u_next)
        resid = bu - g
        w += resid
        delta = float(np.linalg.norm(u_next - u))
        u = u_next
        report.delta_u.append(delta)
        report.feasibility.append(float(np.linalg.norm(resid)))
        report.alphas.append(alpha)
        report.rhos.append(rho)
        report.cg_iters.append(cg_it)
        report.cg_residuals.append(cg_res)
        alpha /= cfg.alpha_decay
        rho_prev = rho
    report.stop_reason = f"iteration cap K = {cfg.max_iters}"
    return _finish(u, report, t0)


def _finish(ut: np.ndarray, report: RunReport,
            t0: float) -> tuple[np.ndarray, RunReport]:
    """Stamp the wall time; U leaves the solver as a C-ordered (M, L)
    complex128 array."""
    report.wall_time_s = time.perf_counter() - t0
    return np.ascontiguousarray(ut.T, dtype=np.complex128), report


def reconstruct_cs_only(d: KSpaceData, model: EncodingModel,
                        cfg: SolverConfig) -> ReconResult:
    """Sparsity-only preliminary reconstruction (identity subspace, no
    phase in the model)."""
    if model.phase is not None:
        raise ValidationError("CS-only reconstruction requires a phase-free model")
    n = model.n_columns
    spec = WaveletSpec(dims=model.spatial_dims)
    u, report = admm_solve(d, model, np.eye(n, dtype=np.complex128), cfg, spec)
    series = CasoratiSeries(u, model.spatial_dims, d.column_labels)
    return ReconResult(series, report)


def reconstruct_lrcs(d: KSpaceData, model: EncodingModel, phase: PhaseMap | None,
                     v_basis: np.ndarray, cfg: SolverConfig) -> ReconResult:
    """Joint subspace + group-sparsity solve; returns X = P o (U V).  At
    ``cfg.lam`` = 0 it is the subspace-constrained least squares of lr."""
    v = np.asarray(v_basis, dtype=np.complex128)
    sv = np.linalg.svd(v, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ValidationError("subspace basis V is rank deficient")
    solve_model = EncodingModel(model.coils, model.mask, phase)
    spec = WaveletSpec(dims=model.spatial_dims)
    u, report = admm_solve(d, solve_model, v, cfg, spec)
    x = u @ v
    if phase is not None:
        x = phase.values * x
    series = CasoratiSeries(x, model.spatial_dims, d.column_labels)
    return ReconResult(series, report, U=u, V=v)


def recon(d: KSpaceData, model: EncodingModel, prelim: ReconResult,
          method: Method | str, mode: PhaseMode | str, rank: int | None,
          cfg: SolverConfig) -> ReconResult:
    """Run one reconstruction method from a shared preliminary solve.

    ``prelim`` is the sparsity-only reconstruction of ``d`` at the weight
    in ``cfg`` (see :func:`preliminary`); CS_ONLY returns it as is.
    LR_ONLY and LRCS take the phase map of ``mode`` (none, the
    preliminary's own phase, or the low-resolution center block), the
    rank ``rank`` (None selects the elbow of the phase-corrected
    preliminary) and the subspace of the preliminary's magnitude, and
    solve with ``cfg``; LR_ONLY at lambda = 0.
    """
    method, mode = Method(method), PhaseMode(mode)
    if method == Method.CS_ONLY:
        return prelim
    if mode == PhaseMode.NONE:
        pmap = None
    elif mode == PhaseMode.PROPOSED:
        pmap = estimate_phase_map(prelim.series)
    else:
        pmap = estimate_phase_lowres(d, model)
    if rank is None:
        rank = select_rank(prelim.series, pmap)
    v = estimate_subspace(prelim.series, rank)
    if method == Method.LR_ONLY:
        cfg = replace(cfg, lam=0.0)
    return reconstruct_lrcs(d, model, pmap, v, cfg)


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


def select_rank(series: CasoratiSeries, phase: PhaseMap | None = None) -> int:
    """Discrete elbow of the log-scale singular value curve of P* o X.

    The elbow is the largest positive second difference of log(sigma);
    the result is clamped to [2, N-1].
    """
    n = series.n_columns
    x = series.data
    if phase is not None:
        x = np.conj(phase.values) * x
    sigma = np.linalg.svd(x, compute_uv=False)
    floor = max(sigma[0], 1.0) * np.finfo(np.float64).eps
    logs = np.log(np.maximum(sigma, floor))
    # second difference at 0-based positions 1..N-2; elbow L = argmax
    curv = logs[2:] - 2.0 * logs[1:-1] + logs[:-2]
    elbow = int(np.argmax(curv)) + 1
    return int(np.clip(elbow, 2, n - 1))


def lambda_base(d: KSpaceData, model: EncodingModel) -> float:
    """Scale anchor for regularization weights: max |Psi A*(d)|."""
    spec = WaveletSpec(dims=model.spatial_dims)
    return float(np.abs(series_forward(adjoint_matrix(model, d.samples), spec)).max())


def default_lambda_grid(d: KSpaceData, model: EncodingModel) -> list[float]:
    """{1e-3, 1e-2, 1e-1} x max |Psi A*(d)|."""
    base = lambda_base(d, model)
    return [base * s for s in (1e-3, 1e-2, 1e-1)]


def select_lambda(d: KSpaceData, model: EncodingModel, candidates,
                  cfg: SolverConfig) -> tuple[float, ReconResult, dict]:
    """Pick the candidate whose preliminary reconstruction maximizes
    low-rankness of the phase-corrected image (minimal nuclear norm).

    Returns the weight, its :func:`reconstruct_cs_only` result with
    ``cfg`` at that weight, and the candidates with their nuclear norms.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("empty lambda candidate list")
    norms, results = [], []
    for lam in candidates:
        result = reconstruct_cs_only(d, model, replace(cfg, lam=float(lam)))
        phase = estimate_phase_map(result.series)
        corrected = np.conj(phase.values) * result.series.data
        norms.append(float(np.linalg.svd(corrected, compute_uv=False).sum()))
        results.append(result)
    best = int(np.argmin(norms))
    return float(candidates[best]), results[best], \
        {"candidates": candidates, "norms": norms}


def preliminary(d: KSpaceData, model: EncodingModel, cfg: SolverConfig,
                lam: float | None = None,
                scale: float | None = None) -> tuple[SolverConfig, ReconResult]:
    """The regularization weight and the sparsity-only preliminary solve
    at it, which every method of :func:`recon` starts from.

    The weight is ``lam`` if given, else ``scale`` x :func:`lambda_base`,
    else the nuclear-norm choice of :func:`select_lambda` over
    :func:`default_lambda_grid`, whose winning solve is the preliminary.
    Returns ``cfg`` at that weight and the preliminary solve.
    """
    if lam is None and scale is None:
        lam, prelim, _ = select_lambda(d, model, default_lambda_grid(d, model), cfg)
        return replace(cfg, lam=lam), prelim
    if lam is None:
        lam = scale * lambda_base(d, model)
    cfg = replace(cfg, lam=lam)
    return cfg, reconstruct_cs_only(d, model, cfg)


def estimate_phase_lowres(d: KSpaceData, model: EncodingModel,
                          min_center: int = 4) -> PhaseMap:
    """Phase from a Hann-apodized zero-filled reconstruction of the
    contiguous center k-space block (per slice and column)."""
    nx, ny, nz = model.spatial_dims
    dc = ny // 2
    grid = zero_fill(d)
    kept = d.mask.kept
    n_cols = kept.shape[2]
    window = np.zeros((n_cols, nz, ny))
    for k in range(n_cols):
        for z in range(nz):
            lines = kept[:, z, k]
            if not lines[dc]:
                raise ValidationError(
                    f"mask lacks a contiguous center block (column {k}, slice {z})")
            lo = dc
            while lo > 0 and lines[lo - 1]:
                lo -= 1
            hi = dc
            while hi + 1 < ny and lines[hi + 1]:
                hi += 1
            length = hi - lo + 1
            if length < min_center:
                raise ValidationError(
                    f"center block of {length} lines is too small "
                    f"(column {k}, slice {z})")
            window[k, z, lo:hi + 1] = np.hanning(length + 2)[1:-1]
    apodized = grid * window[None, :, :, :, None]
    imgs = ifft2c(apodized)
    maps_t = model.coils.maps.transpose(0, 3, 2, 1)
    combined = np.einsum("cnzyx,czyx->nzyx", imgs, np.conj(maps_t))
    data = np.ascontiguousarray(combined.reshape((n_cols, -1)).T)
    lowres = CasoratiSeries(data, model.spatial_dims, d.column_labels)
    return estimate_phase_map(lowres)
