"""Eager BSGS oracle for :meth:`LinearTransform.apply`.

Production runs the double-hoisted BSGS: baby-step key-switch
accumulators stay in the extended base ``C_level + B`` and each giant
group pays one ModDown.  The eager route here fully key-switches every
baby step (one shared raise, one ModDown per baby) and applies the
plaintext diagonals in ``C_level``.  The ModDown BConv approximation
enters at different points, so the two agree to far below the noise
floor rather than bit for bit.
"""

from __future__ import annotations

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.linear_transform import LinearTransform, bsgs_split


def apply_eager(lt: LinearTransform, evaluator: Evaluator,
                ct: Ciphertext) -> Ciphertext:
    """Homomorphic ``M z`` with every baby step key-switched eagerly."""
    n = lt.n_slots
    if ct.n_slots != n:
        raise ValueError(
            f"transform is {n}-slot but ciphertext has {ct.n_slots}")
    g = bsgs_split(n)
    groups: dict[int, list[int]] = {}
    for d in lt.diagonals:
        groups.setdefault(d - d % g, []).append(d)
    level = ct.level
    base_q = evaluator.ring.base_q(level)
    pmult_scale = float(evaluator.ring.q_primes[level].value)
    babies, _ = evaluator.galois_hoisted(
        ct, sorted({d % g for d in lt.diagonals}))
    acc: Ciphertext | None = None
    for giant in sorted(groups):
        inner: Ciphertext | None = None
        for d in groups[giant]:
            # Pre-rotate the plaintext diagonal so one giant HRot at the
            # end covers the whole group: rot_{giant}(x * rot_b(z)) ==
            # diag_d * rot_d(z) when x = roll(diag_d, giant).
            pt = lt._encoded_diagonal(evaluator, d, giant, base_q,
                                      pmult_scale)
            term = evaluator.multiply_plain(babies[d % g], pt)
            inner = term if inner is None else evaluator.add(inner, term)
        if giant % n:
            inner = evaluator.rotate(inner, giant % n)
        acc = inner if acc is None else evaluator.add(acc, inner)
    if acc is None:
        raise ValueError("transform has no nonzero diagonals")
    return evaluator.rescale(acc)
