"""The Theorem 4.4 normal form: computing transformations via ``Rep``.

The completeness proof factors any transformation Q as
``P_Rep ∘ P ∘ P_Rep⁻``: first encode the input into its canonical
representation (Lemma 4.2), compute the corresponding relational
transformation there (expressible in FO+while+new because the canonical
scheme has fixed width), then decode (Lemma 4.3).

This module makes that factorization executable:

* :func:`lift_to_rep` turns a tabular transformation ``f`` into the
  corresponding transformation on ``Rep`` instances
  (``encode ∘ f ∘ decode``);
* :func:`normal_form` rebuilds ``f`` from its lifted form
  (``decode ∘ f# ∘ encode``) — by the two lemmas, the result agrees with
  ``f`` up to isomorphism on every database in the round-trip domain;
* :func:`normal_form_agrees` is the executable statement of that claim.

The paper "goes via the canonical representations" only to *prove*
completeness and immediately notes "this is not the way to proceed in
practice"; accordingly these functions serve the theory benchmarks, not
the operational layer.
"""

from __future__ import annotations

from typing import Callable

from ..canonical import decode, encode
from ..core import TabularDatabase
from .isomorphism import are_isomorphic

__all__ = ["lift_to_rep", "normal_form", "normal_form_agrees"]

Transformation = Callable[[TabularDatabase], TabularDatabase]


def lift_to_rep(f: Transformation) -> Transformation:
    """The transformation induced by ``f`` on canonical representations.

    ``lift_to_rep(f)(R) = encode(f(decode(R)))`` for any ``Rep``
    instance R.
    """

    def lifted(rep: TabularDatabase) -> TabularDatabase:
        return encode(f(decode(rep)))

    lifted.__name__ = f"rep_{getattr(f, '__name__', 'transformation')}"
    return lifted


def normal_form(f: Transformation) -> Transformation:
    """``f`` recomputed through the canonical representation.

    ``normal_form(f)(D) = decode(lift_to_rep(f)(encode(D)))`` — the
    ``P_Rep ∘ P ∘ P_Rep⁻`` factorization of Theorem 4.4.
    """
    lifted = lift_to_rep(f)

    def composed(db: TabularDatabase) -> TabularDatabase:
        return decode(lifted(encode(db)))

    composed.__name__ = f"normal_form_{getattr(f, '__name__', 'transformation')}"
    return composed


def normal_form_agrees(
    f: Transformation, db: TabularDatabase, limit: int = 12
) -> bool:
    """Does the normal form of ``f`` compute the same transformation at ``db``?

    Agreement is |D|-isomorphism restricted to the symbols of the direct
    result (fresh occurrence identifiers are the only permitted
    difference, and decode discards them again, so for value-complete
    results this is plain equivalence).
    """
    direct = f(db)
    via_rep = normal_form(f)(db)
    return are_isomorphic(via_rep, direct, fixed=frozenset(db.symbols()), limit=limit)
