"""Single-slice ModUp oracle.

Production :func:`repro.ckks.keyswitch.raise_decomposition` raises every
decomposition slice of a polynomial at once: one shared iNTT, one BConv
per slice and one stacked forward transform for all converted limbs.
This raises one slice on its own (its own iNTT, BConv and NTT), and also
accepts ad-hoc sub-bases that are not a block of
:meth:`~repro.ckks.params.RingContext.mod_up_plan`; on a standard block
it must match the corresponding ``raise_decomposition`` slice bit for
bit.
"""

from __future__ import annotations

from repro.ckks.keyswitch import _assemble_raised
from repro.ckks.params import RingContext
from repro.ckks.rns import RnsPolynomial, base_convert


def mod_up(slice_poly: RnsPolynomial, level: int, ring: RingContext,
           slice_coeff: RnsPolynomial | None = None) -> RnsPolynomial:
    """Raise one NTT-domain decomposition slice to the base C_level + B.

    The slice's own limbs are reused as-is; only the complement limbs
    pay the iNTT -> BConv -> NTT cost.  ``slice_coeff`` may supply the
    coefficient-domain form when the caller already has it.
    """
    slice_values = tuple(p.value for p in slice_poly.base)
    for slice_base, complement, own_rows, conv_rows \
            in ring.mod_up_plan(level):
        if tuple(p.value for p in slice_base) == slice_values:
            break
    else:
        target_base = ring.base_qp(level)
        block_values = set(slice_values)
        complement = tuple(p for p in target_base
                           if p.value not in block_values)
        own_rows = [i for i, p in enumerate(target_base)
                    if p.value in block_values]
        conv_rows = [i for i, p in enumerate(target_base)
                     if p.value not in block_values]
    if slice_coeff is None:
        slice_coeff = slice_poly.from_ntt()
    converted = base_convert(slice_coeff, complement).to_ntt()
    return _assemble_raised(ring.base_qp(level), slice_poly, converted,
                            own_rows, conv_rows)
