"""Per-polynomial ModDown oracle.

Production :func:`repro.ckks.keyswitch.mod_down` lowers any number of
polynomials through one stacked tail (one stacked iNTT, one BConv over
side-by-side coefficient blocks, one stacked NTT).  This is the same
arithmetic for a single polynomial with its own iNTT, BConv and NTT;
the stacked form must match it bit for bit at every width.
"""

from __future__ import annotations

from repro.ckks.params import RingContext
from repro.ckks.rns import RnsPolynomial, base_convert


def mod_down_single(poly: RnsPolynomial, level: int,
                    ring: RingContext) -> RnsPolynomial:
    """``(poly - BConv_B->C(poly mod P)) * P^-1`` over C_level."""
    base_q = ring.base_q(level)
    p_part = RnsPolynomial(ring.base_p, poly.residues[level + 1:], True)
    q_part = RnsPolynomial(base_q, poly.residues[:level + 1], True)
    correction = base_convert(p_part.from_ntt(), base_q).to_ntt()
    cols, cols_shoup = ring.p_inv_scalar_columns(level)
    return q_part.sub(correction).mul_scalar_columns(cols, cols_shoup)
