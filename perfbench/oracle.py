"""Independent Levi-Civita Ricci reference for the symbolic-lc workload.

This file shares no code with nhgeo and never imports it. sympy
differentiates the coordinate metric exactly; numpy contracts the
Christoffel symbols and the Ricci tensor at each sample point and moves the
result to the N-adapted frame e_i = d_i - N_i^a d_a, e_a = d_a.

It runs as a child process of the benchmark, so sympy's memory never counts
towards the benchmarked process:

    python3 perfbench/oracle.py < cases.json > ricci.json

Input:  {"cases": [{"coeffs": [c0, ..., c6], "points": [[x1, x2, x3, v, y5], ...]}]}
Output: {"ricci": [[5x5 adapted-frame Ricci per point] per case]}
"""

import json
import sys

import numpy as np
import sympy as sp

NAMES = ("x1", "x2", "x3", "v", "y5")
N_H, DIM = 3, 5


def lean_lc_metric(c, x1, x2, x3, v, y5):
    """(g_ij diagonal, h_ab diagonal, N_i^a) of the lean LC test metric.

    The same template as ``lc_metric`` in perfbench/workloads.py, written
    out again here on purpose so the two share nothing but the numbers."""
    g = [1, sp.exp(c[0] * x2), 1 + c[1] * x3]
    h = [1 + c[2] * v ** 2, 2 + c[3] * x2 * v]
    n = [[0, 0], [c[4] * v * x2, c[5] * v ** 2], [0, c[6] * x3]]
    return g, h, n


def coordinate_metric(c, syms):
    g, h, n = lean_lc_metric(c, *syms)
    out = sp.zeros(DIM, DIM)
    for i in range(N_H):
        out[i, i] = g[i]
        for j in range(N_H):
            out[i, j] += sum(n[i][a] * n[j][a] * h[a] for a in range(2))
        for a in range(2):
            out[i, N_H + a] = out[N_H + a, i] = n[i][a] * h[a]
    for a in range(2):
        out[N_H + a, N_H + a] = h[a]
    return out, n


def ricci_cases(cases):
    syms = sp.symbols(NAMES)
    results = []
    for case in cases:
        c = [sp.Float(x, 30) for x in case["coeffs"]]
        gmat, ncoef = coordinate_metric(c, syms)
        d1 = [gmat.diff(s) for s in syms]
        d2 = [[d1[e].diff(s) for s in syms] for e in range(DIM)]
        fn = sp.lambdify(syms, [gmat, d1, d2, sp.Matrix(ncoef)], modules="numpy")
        out = []
        for p in case["points"]:
            g0, g1, g2, nn = (np.array(a, dtype=float) for a in fn(*p))
            out.append(frame_ricci(g0, g1, g2, nn).tolist())
        results.append(out)
    return results


def frame_ricci(g, dg, ddg, ncoef):
    """Adapted-frame Ricci from g_{ab}, dg[e] = d_e g and ddg[e][f] = d_e d_f g."""
    ginv = np.linalg.inv(g)
    # first-kind symbols lower[t, a, b] = (d_a g_tb + d_b g_ta - d_t g_ab) / 2
    lower = 0.5 * (np.einsum("atb->tab", dg) + np.einsum("bta->tab", dg)
                   - dg)
    gamma = np.einsum("ct,tab->cab", ginv, lower)
    # d_e of the first-kind symbols and of the inverse metric
    dlower = 0.5 * (np.einsum("eatb->etab", ddg) + np.einsum("ebta->etab", ddg)
                    - ddg)
    dginv = -np.einsum("ck,ekl,lt->ect", ginv, dg, ginv)
    dgamma = (np.einsum("ect,tab->ecab", dginv, lower)
              + np.einsum("ct,etab->ecab", ginv, dlower))
    # R_bt = d_a Gamma^a_bt - d_t Gamma^a_ba + Gamma^a_am Gamma^m_bt
    #        - Gamma^a_tm Gamma^m_ba
    ric = (np.einsum("aabt->bt", dgamma) - np.einsum("taba->bt", dgamma)
           + np.einsum("aam,mbt->bt", gamma, gamma)
           - np.einsum("atm,mba->bt", gamma, gamma))
    frame = np.eye(DIM)
    frame[:N_H, N_H:] = -ncoef
    return frame @ ric @ frame.T


def main():
    cases = json.load(sys.stdin)["cases"]
    json.dump({"ricci": ricci_cases(cases)}, sys.stdout)


if __name__ == "__main__":
    main()
