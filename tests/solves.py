"""Solves of the tests, each from the U0 solve (``recon.first_solve``) of
its own samples, model, subspace and CG cap, as the program makes it:
bit-equal to a solve of :func:`recon.recon` on the same problem."""

import numpy as np

from lrcs_cdti import encoding as enc
from lrcs_cdti import recon


def start(d, model, v, cfg):
    """The U0 solve of the samples ``d`` on ``model`` and subspace ``v``."""
    return recon.first_solve(model, v, enc.adjoint_matrix(model, d.samples), cfg)


def cs_start(d, model, cfg):
    """The U0 solve of cs, on the identity subspace."""
    return start(d, model, np.eye(model.n_columns), cfg)


def cs(d, model, cfg):
    return recon.reconstruct_cs_only(d, model, cfg, cs_start(d, model, cfg))


def lrcs(d, model, v, cfg):
    return recon.reconstruct_lrcs(model, v, cfg, start(d, model, v, cfg))


def admm(d, model, v, cfg):
    return recon.admm_solve(model, v, cfg, start(d, model, v, cfg))
