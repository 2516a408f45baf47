"""Differential oracles: reference routes production no longer runs.

Each module here keeps a slower, independently structured way of
computing something a production kernel computes, so the test tiers can
assert the two agree (bit for bit, or to a stated tolerance):

* :mod:`tests.oracles.galois` — the coefficient-domain automorphism and
  the coefficient-domain hoisted rotation route (iNTT and BConv shared,
  permute, one forward transform per galois element);
* :mod:`tests.oracles.moddown` — the per-polynomial ModDown;
* :mod:`tests.oracles.modup` — the single-slice ModUp;
* :mod:`tests.oracles.bsgs` — the eager BSGS linear transform (one
  ModDown per baby step).

Import them as ``tests.oracles.<module>``; nothing under ``src/``
imports this package.
"""
