"""Dense referees of the PR/BR/LQG Riccati reformulations, for small test
systems only: every matrix is formed densely."""

import numpy as np
import scipy.linalg as la

from lrmor import BalancingTransform, LtiSystem


def variant_residual(system: LtiSystem, variant: str, x: np.ndarray,
                     side: str = "N") -> np.ndarray:
    """Dense residual of the original PR/BR/LQG Riccati equation at ``x``."""
    a = system.dense_a_eff()
    e = system.dense_e()
    b, c, d = system.b, system.c, system.d
    x = np.atleast_2d(x)
    if side == "T":
        a, e, b, c, d = a.T, e.T, c.T, b.T, d.T
    lin = a @ x @ e.T + e @ x @ a.T
    epc = e @ x @ c.T
    if variant == "positive_real":
        core = la.solve(d + d.T, (epc - b).T)
        return lin + (epc - b) @ core
    if variant == "bounded_real":
        core = la.solve(np.eye(d.shape[0]) - d @ d.T, (epc + b @ d.T).T)
        return lin + b @ b.T + (epc + b @ d.T) @ core
    if variant == "lqg":
        core = la.solve(np.eye(d.shape[0]) + d @ d.T, (epc + b @ d.T).T)
        return lin + b @ b.T - (epc + b @ d.T) @ core
    raise ValueError(f"unknown variant {variant!r}")


def transformed_residual(transform: BalancingTransform, x: np.ndarray,
                         side: str = "N") -> np.ndarray:
    """Dense residual of the rewritten (tilde) Riccati equation at ``x``."""
    sys_ = transform.system
    a = sys_.dense_a_eff()
    e = sys_.dense_e()
    b, c = sys_.b, sys_.c
    x = np.atleast_2d(x)
    if side == "T":
        a, e, b, c = a.T, e.T, c.T, b.T
    lin = a @ x @ e.T + e @ x @ a.T
    quad = (e @ x @ c.T) @ (c @ x @ e.T)
    return lin + b @ b.T + transform.quad_sign * quad
