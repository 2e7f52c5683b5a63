"""The n x n theta program's Schur builder with its rows gathered first, kept
as the oracle of `gamebounds.sdp._theta_program`'s: every block of rows
gathers the rows of X and Z^-1 at its representative edges, then their
entries at the edge endpoints, and forms the same four products and three
sums in the same order, so the two builders agree bit for bit."""

from __future__ import annotations

import numpy as np

from gamebounds.sdp import _SCHUR_BLOCK_ENTRIES


def theta_schur(ei: np.ndarray, ej: np.ndarray, starts: np.ndarray, average):
    """schur(X, Z^-1, out) for the n x n program of _theta_program(c, ei, ej,
    starts, average): the lower triangle of M_kl = tr(A_k X A_l Z^-1)."""
    m = len(starts) + 1
    bounds = np.append(starts, len(ei))
    sizes = np.diff(bounds)
    singletons = len(starts) == len(ei)

    def class_sums(v):
        return v if singletons else np.add.reduceat(v, starts)

    def schur(x, zi, out):
        x, zi = average(x), average(zi)
        out[0, 0] = np.sum(x * zi)
        w = x @ zi
        out[1:, 0] = class_sums(0.5 * (w[ei, ej] + w[ej, ei]))
        rows = max(1, _SCHUR_BLOCK_ENTRIES // (len(ei) + 1))
        for s in range(0, m - 1, rows):
            e = min(s + rows, m - 1)
            i, j = ei[starts[s:e]], ej[starts[s:e]]
            fk, fl = ei[:bounds[e]], ej[:bounds[e]]
            xi, xj, zi_i, zi_j = x[i], x[j], zi[i], zi[j]
            rows_out = out[1 + s:1 + e, 1:1 + e]
            block = (rows_out if singletons
                     else np.empty((e - s, bounds[e])))
            np.multiply(xj[:, fk], zi_i[:, fl], out=block)
            block += xj[:, fl] * zi_i[:, fk]
            block += xi[:, fk] * zi_j[:, fl]
            block += xi[:, fl] * zi_j[:, fk]
            if not singletons:
                np.add.reduceat(block, starts[:e], axis=1, out=rows_out)
            rows_out *= 0.25 * sizes[s:e, None]

    return schur
