"""Parameters of tabular algebra statements (paper, Section 3.6).

The paper's parameter grammar (de-garbled from the OCR) is::

    (parameter) ::= ⊥ | * | (name){, (name)} | ((parameter), (parameter))
                    [ - ⊥ | (name){, (name)} | ((parameter), (parameter)) ]

"A parameter represents an entry or a set of entries, consisting of the
interpretations of the items in the positive list that are not
interpretations of items in the negative list.  A star, possibly
subscripted for distinction, is a wild card.  A pair of parameters defines
entries in the table under consideration by specifying attribute and
column row entries."

Model here:

* :class:`Lit` — a literal symbol (a name, ⊥, or — beyond the strict
  grammar but needed for SWITCH and constant selection — a value);
* :class:`Star` — a wild card, optionally subscripted; wildcards are bound
  by table-name matching and are then the *same* symbol everywhere they
  occur in the statement;
* :class:`Pair` — ``((row-param, col-param))``: the set of entries
  ``τ_i^j`` of the table under consideration whose row attribute matches
  the first component and whose column attribute matches the second
  (:data:`ANY` matches everything);
* :class:`ParamSet` — positive items minus negative items.

Every parameter evaluates, relative to a wildcard :class:`Binding` and the
table under consideration, to a set of symbols; single-attribute positions
additionally require that set to be a singleton ("otherwise the effect of
the statement is undefined").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ...core import (
    NULL,
    EvaluationError,
    Name,
    Symbol,
    Table,
    UndefinedOperationError,
    coerce_symbol,
)

__all__ = [
    "Parameter",
    "Lit",
    "Star",
    "Pair",
    "ParamSet",
    "AnyParam",
    "ANY",
    "Nothing",
    "NOTHING",
    "Binding",
    "as_parameter",
    "literal_symbol",
]


class Binding:
    """A wildcard environment: subscript → bound symbol."""

    def __init__(self, values: dict[int, Symbol] | None = None):
        self._values = dict(values or {})

    def get(self, index: int) -> Symbol:
        if index not in self._values:
            raise EvaluationError(f"wildcard *{index} is unbound")
        return self._values[index]

    def bound(self, index: int) -> bool:
        return index in self._values

    def snapshot(self) -> dict[int, Symbol]:
        """A copy of the environment (subscript → symbol), for observability."""
        return dict(self._values)

    def extended(self, index: int, symbol: Symbol) -> "Binding":
        if index in self._values and self._values[index] != symbol:
            raise EvaluationError(
                f"wildcard *{index} already bound to {self._values[index]!s}"
            )
        values = dict(self._values)
        values[index] = symbol
        return Binding(values)

    def __repr__(self) -> str:
        inner = ", ".join(f"*{k}={v!s}" for k, v in sorted(self._values.items()))
        return f"Binding({inner})"


class Parameter:
    """Abstract base of statement parameters."""

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        """The set of symbols this parameter denotes."""
        raise NotImplementedError

    def evaluate_single(self, binding: Binding, table: Table | None) -> Symbol:
        """The unique symbol this parameter denotes, or an error.

        Implements the paper's rule that "a parameter representing a single
        column attribute should have a singleton set as interpretation,
        otherwise the effect of the statement is undefined".
        """
        symbols = self.evaluate(binding, table)
        if len(symbols) != 1:
            raise UndefinedOperationError(
                f"parameter {self} denotes {len(symbols)} symbols where exactly one is required"
            )
        return next(iter(symbols))

    def wildcards(self) -> frozenset[int]:
        """Subscripts of the wildcards occurring in this parameter."""
        return frozenset()


class Lit(Parameter):
    """A literal symbol parameter (name, ⊥, or value)."""

    def __init__(self, symbol: object):
        self.symbol = coerce_symbol(symbol) if not isinstance(symbol, str) else Name(symbol)

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        return frozenset([self.symbol])

    def __repr__(self) -> str:
        return f"Lit({self.symbol!s})"

    def __str__(self) -> str:
        return str(self.symbol)


def literal_symbol(param: object) -> Symbol | None:
    """The symbol of a literal parameter, else None (wildcards, sets, pairs)."""
    return param.symbol if isinstance(param, Lit) else None


class Star(Parameter):
    """A wild card ``*`` (optionally subscripted: ``*1``, ``*2`` …)."""

    def __init__(self, index: int = 0):
        self.index = index

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        return frozenset([binding.get(self.index)])

    def wildcards(self) -> frozenset[int]:
        return frozenset([self.index])

    def __repr__(self) -> str:
        return f"Star({self.index})"

    def __str__(self) -> str:
        return "*" if self.index == 0 else f"*{self.index}"


class AnyParam(Parameter):
    """Matches every symbol; usable only inside a :class:`Pair` component."""

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        raise EvaluationError("ANY is only meaningful inside a Pair component")

    def matches(self, symbol: Symbol, binding: Binding, table: Table | None) -> bool:
        return True

    def __repr__(self) -> str:
        return "ANY"

    def __str__(self) -> str:
        return "any"


#: The catch-all pair component.
ANY = AnyParam()


class Nothing(Parameter):
    """The empty attribute set.

    Arises from programmatic empty sets (e.g. a projection onto no
    attributes, or a purge with an empty grouping key); the textual
    grammar has no literal for it, matching the paper's non-empty positive
    lists, but compiled programs need it.
    """

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        return frozenset()

    def __repr__(self) -> str:
        return "NOTHING"

    def __str__(self) -> str:
        return "{}"


#: The empty attribute-set parameter.
NOTHING = Nothing()


def _component_matches(
    component: Parameter, symbol: Symbol, binding: Binding, table: Table | None
) -> bool:
    if isinstance(component, AnyParam):
        return True
    return symbol in component.evaluate(binding, table)


class Pair(Parameter):
    """``((row-param, col-param))`` — data-dependent entry selection.

    Evaluates, on the table under consideration, to the set of data
    entries ``τ_i^j`` (i, j ≥ 1) whose row attribute ``τ_i^0`` matches the
    first component and whose column attribute ``τ_0^j`` matches the
    second.  This is how a statement can use *data* as attributes — e.g.
    "the entries of the Region row" as a split criterion.
    """

    def __init__(self, row: Parameter, col: Parameter):
        self.row = row
        self.col = col

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        if table is None:
            raise EvaluationError("a Pair parameter needs a table under consideration")
        rows = [
            i
            for i in table.data_row_indices()
            if _component_matches(self.row, table.entry(i, 0), binding, table)
        ]
        cols = [
            j
            for j in table.data_col_indices()
            if _component_matches(self.col, table.entry(0, j), binding, table)
        ]
        return frozenset(table.entry(i, j) for i in rows for j in cols)

    def wildcards(self) -> frozenset[int]:
        return self.row.wildcards() | self.col.wildcards()

    def __repr__(self) -> str:
        return f"Pair({self.row!r}, {self.col!r})"

    def __str__(self) -> str:
        return f"(({self.row}, {self.col}))"


class ParamSet(Parameter):
    """Positive items minus negative items.

    ``ParamSet([Lit("A"), Lit("B")], [Lit("B")])`` denotes ``{A}``.
    """

    def __init__(self, positive: Sequence[Parameter], negative: Sequence[Parameter] = ()):
        self.positive = tuple(positive)
        self.negative = tuple(negative)
        if not self.positive:
            raise EvaluationError("a ParamSet requires at least one positive item")

    def evaluate(self, binding: Binding, table: Table | None) -> frozenset[Symbol]:
        included: set[Symbol] = set()
        for item in self.positive:
            included |= item.evaluate(binding, table)
        for item in self.negative:
            included -= item.evaluate(binding, table)
        return frozenset(included)

    def wildcards(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for item in self.positive + self.negative:
            out |= item.wildcards()
        return out

    def __repr__(self) -> str:
        return f"ParamSet({list(self.positive)!r}, {list(self.negative)!r})"

    def __str__(self) -> str:
        text = ", ".join(str(p) for p in self.positive)
        if self.negative:
            text += " - " + ", ".join(str(n) for n in self.negative)
        return "{" + text + "}"


def as_parameter(obj: object) -> Parameter:
    """Coerce Python objects into parameters.

    Strings become literal *names*, ``None`` the ⊥ literal, symbols pass
    through as literals, iterables become positive :class:`ParamSet` lists,
    and parameters pass through unchanged.
    """
    if isinstance(obj, Parameter):
        return obj
    if obj is None or isinstance(obj, (str, Symbol)):
        return Lit(obj if obj is not None else NULL)
    if isinstance(obj, Iterable):
        items = [as_parameter(item) for item in obj]
        if not items:
            return NOTHING
        return ParamSet(items)
    return Lit(obj)
