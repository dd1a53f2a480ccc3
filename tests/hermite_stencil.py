"""The Hermite-stencil kernel of the CF corrections, kept as a test oracle.

The corrections z1 and z2 once took the flow's expectation over the
auxiliary state V by a Gauss-Hermite rule and the source operators' v
derivatives by a central difference.  Both are exact in the moment form that
adol.charfn uses today; this kernel reaches the same values as hermite_n
grows and v_step shrinks, and at any size in affine-ode mode, where z0 does
not depend on v.  Its knobs live on KernelConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from adol.charfn import (CorrectionConfig, _m_cum, _power_nodes, _unit_response, _v_law,
                         _z0_coefficients, _z1_rule_sum)
from adol.model import AdolModel
from adol.pricing import _hermite_rule


@dataclass(frozen=True)
class KernelConfig(CorrectionConfig):
    """CorrectionConfig, whose mode picks the zero order's coefficients,
    plus the kernel's own knobs: sigma_step and z2_panels are its copies of
    charfn's _SIGMA_STEP and _Z2_PANELS, hermite_n sizes the Gaussian rule
    over V, v_step is the relative step of the v difference.  Its time rule
    is charfn's, at charfn's tolerances."""

    sigma_step: float = 1e-3
    z2_panels: int = 10
    v_step: float = 1e-3
    hermite_n: int = 12


def _flow_state(model: AdolModel, u: complex, tables: Callable, t: float,
                sigma, v, chis: np.ndarray, x_h: np.ndarray, at_t=None,
                at_chis=None):
    """The exact zero-order flow from states (sigma, v) at t to each chi.

    Returns the sigma ray, the Gaussian rule over the auxiliary state (its
    mean carries the complex correlation shift) and the reaction term
    integrated along the ray in closed form.  The states broadcast against
    each other; the results gain a trailing time axis, the nodes one more.
    at_t, if given, is tables(t), for callers that start many flows at t;
    at_chis likewise is tables(chis), for callers that reuse one time rule.
    """
    kap = model.kappa
    sigma = np.asarray(sigma, dtype=float)[..., None]
    v = np.asarray(v, dtype=complex)[..., None]
    dt = chis - t
    ms = _m_cum(chis, model)
    e_damp, f_quad = tables(chis) if at_chis is None else at_chis
    # both tables vanish at t = 0, where their nodes would all sit
    e_t, f_t = (tables(t) if at_t is None else at_t) if t > 0.0 else (0.0, 0.0)
    decay, var = _v_law(model, t, chis, f_s=f_t, f_t=f_quad, m_t=ms)
    shift = sigma * math.exp(kap * t) * (e_damp - e_t)
    mean = decay * v + 1j * u * model.rho * np.exp(-ms) * shift
    nodes = mean[..., None] + np.sqrt(2.0 * var)[..., None] * x_h
    sig2 = sigma * sigma * _unit_response(kap, dt)
    pref = np.exp(1j * u * (model.r - model.q) * dt - 0.5 * u * (u + 1j) * sig2)
    return sigma * np.exp(-kap * dt), nodes, pref


def _column(val, chis: np.ndarray) -> np.ndarray:
    """A coefficient on the whole chis array as a complex column; a scalar
    serves every chi."""
    val = np.asarray(val, dtype=complex)
    if val.shape != chis.shape:
        val = np.full(chis.shape, val)
    return val[:, None]


def _z0_slices(model: AdolModel, mode: str, u: complex, chis: np.ndarray):
    """z0 at each time chi as a function of (sigma, v) arrays whose second
    to last axis runs over chis.

    Each coefficient is evaluated once, on the whole chis array.  Where
    beta_bar is zero at every chi (always so in affine-ode mode), z0 does
    not depend on v: the slice is then evaluated on sigma's shape alone and
    left for the caller's arithmetic to broadcast across v.  Its values
    equal the full evaluation's, whose cross term is an exact zero.  The
    returned function's v_free attribute says which case holds.
    """
    a, g, b = (_column(x, chis) for x in _z0_coefficients(u, model, mode, chis))
    v_free = not b.any()

    if v_free:
        def z0(s, v):
            return np.exp(a + g * s * s)
    else:
        def z0(s, v):
            return np.exp(a + g * s * s + b * s * v)

    z0.v_free = v_free
    return z0


def _nu_m(model: AdolModel, chis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nu and m at positive times, as columns against the Hermite axis."""
    nu = model.constants.b_h * chis ** (model.h - 0.5)
    return nu[:, None], (model.m_rho * chis ** model.m_pi)[:, None]


def _phi1_legs(s, v, hs, hv):
    """The points of the Phi1 stencil, in the order _stencil_phi1 reads:
    the two sigma legs, then, unless hv is None, the four mixed ones."""
    sp, sm = s + hs, s - hs
    if hv is None:
        return (sp, v), (sm, v)
    vp, vm = v + hv, v - hv
    return (sp, v), (sm, v), (sp, vp), (sp, vm), (sm, vp), (sm, vm)


def _stencil_phi1(f, nu, m, u: complex, rho: float, s, v, hs, hv):
    """xi-linear generator piece by central differences at the source point:
    nu^2 s d2/(ds dv) + (i u rho nu s - m v) s d/ds, from the values f of
    the operand at the _phi1_legs points.  Accepts arrays.

    hv = None marks an operand that does not depend on v (a v-free z0
    slice): its mixed difference f(s+,v+) - f(s+,v-) - f(s-,v+) + f(s-,v-)
    subtracts equal values and is an exact zero, so that term is skipped
    and f holds the two sigma legs only; the result equals the full
    stencil's.
    """
    f_s = (f[0] - f[1]) / (2.0 * hs)
    # (i u rho nu s - m v) s f_s built in place: a chain of full-size
    # temporaries made the heap grow and shrink on every call
    drift = m * v
    np.subtract(1j * u * rho * nu * s, drift, out=drift)
    drift *= s
    drift *= f_s
    if hv is None:
        return drift
    f_sv = (f[2] - f[3] - f[4] + f[5]) / (4.0 * hs * hv)
    return nu * nu * s * f_sv + drift


def _stencil_phi2(fn, nu, s, v, hs):
    """xi^2 generator piece: (1/2) nu^2 s^2 d2/ds2, central differences."""
    f_ss = (fn(s + hs, v) - 2.0 * fn(s, v) + fn(s - hs, v)) / (hs * hs)
    return 0.5 * nu * nu * s * s * f_ss


def _steps(cfg: KernelConfig, s, nodes):
    """Relative stencil steps in sigma and v; no v step for nodes = None."""
    hv = None if nodes is None else cfg.v_step * np.maximum(1.0, np.abs(nodes))
    return cfg.sigma_step * np.maximum(1.0, np.abs(s)), hv


def _z1_integrand(model: AdolModel, u: complex, cfg: KernelConfig,
                  tables: Callable, t: float, sigma, v,
                  chis: np.ndarray, at_t=None, at_chis=None) -> np.ndarray:
    """The first-order integrand: the source Phi1 z0 at each time chi in
    (t, T], carried back along the flow to the states (sigma, v) at t.

    Vectorised over (state, time node, Hermite node); the states broadcast
    against each other, and the result has their shape plus a trailing
    time axis.  at_t and at_chis are passed on to _flow_state.  On a
    v-free z0 slice (affine-ode mode) the stencil's mixed difference is an
    exact zero, so neither it nor the v steps over the Hermite nodes are
    formed.
    """
    x_h, w_h = _hermite_rule(cfg.hermite_n)
    s_tr, nodes, pref = _flow_state(model, u, tables, t, sigma, v, chis, x_h,
                                    at_t, at_chis)
    s_tr = s_tr[..., None]
    z0 = _z0_slices(model, cfg.mode, u, chis)
    hs, hv = _steps(cfg, s_tr, None if z0.v_free else nodes)
    nu, m = _nu_m(model, chis)
    src = _stencil_phi1([z0(a, b) for a, b in _phi1_legs(s_tr, nodes, hs, hv)],
                        nu, m, u, model.rho, s_tr, nodes, hs, hv)
    return pref * (src @ w_h)


def _z1_value(model: AdolModel, u: complex, cfg: KernelConfig,
              tables: Callable) -> complex:
    """z1 at inception from the Hermite-stencil kernel (_z1_rule_sum)."""
    return _z1_rule_sum(model, u, tables, lambda nodes, at_nodes: _z1_integrand(
        model, u, cfg, tables, 0.0, model.sigma0, model.v0, nodes, at_chis=at_nodes))


def _z2_point(model: AdolModel, u: complex, cfg: KernelConfig,
              tables: Callable) -> complex:
    # fixed substituted panels on both time axes: the whole term enters at
    # xi^2, and the cf pins admit only the panel value (see _power_nodes)
    T = model.t_mat
    x_h, w_h = _hermite_rule(cfg.hermite_n)
    chis, wts = _power_nodes(0.0, T, model.h, cfg.z2_panels + 6, 10)
    s_tr, nodes, pref = _flow_state(model, u, tables, 0.0, model.sigma0,
                                    model.v0, chis, x_h)
    s_tr = s_tr[:, None]
    hs, hv = _steps(cfg, s_tr, nodes)
    nu, m = _nu_m(model, chis)
    # a v-free slice leaves Phi2 z0 without the node axis the z1 field needs
    src = np.broadcast_to(_stencil_phi2(_z0_slices(model, cfg.mode, u, chis), nu, s_tr,
                                        nodes, hs),
                          nodes.shape).copy()
    nh = len(x_h)
    for j, chi in enumerate(chis):
        sj, hsj, hvj, vj = s_tr[j, 0], hs[j, 0], hv[j], nodes[j]
        # the z1 field at the six stencil legs, as a grid of the two sigma
        # legs by the three v legs: the sigma-only work runs on 2 states
        sg = np.array([[sj + hsj], [sj - hsj]])
        vg = np.concatenate([vj + hvj, vj - hvj, vj])[None, :]
        inner, iw = _power_nodes(chi, T, model.h, cfg.z2_panels, 8)
        at_chi = tables(chi)
        # one 8-node panel per call: larger blocks measured slower end to end
        z1g = sum(_z1_integrand(model, u, cfg, tables, chi, sg, vg, inner[i:i + 8], at_chi)
                  @ iw[i:i + 8] for i in range(0, len(inner), 8))
        (sp_vp, sp_vm, sp_v), (sm_vp, sm_vm, sm_v) = z1g.reshape(2, 3, nh)
        src[j] += _stencil_phi1([sp_v, sm_v, sp_vp, sp_vm, sm_vp, sm_vm], nu[j], m[j],
                                u, model.rho, sj, vj, hsj, hvj)
    return complex(wts @ (pref * (src @ w_h)))
