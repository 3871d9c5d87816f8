"""Selection predicates.

The paper's workloads only need conjunctions of equality, ``IN`` and range
predicates over single attributes (plus one computed-expression predicate in
the SDSS Q2 variant, handled as a residual filter), so that is what the
engine supports.  Predicates convert to the value-level constraints consumed
by correlation maps and the query rewriter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.composite import ValueConstraint
from repro.core.statistics import CountKernel


class Predicate:
    """Base class: a condition over one attribute (or a computed expression)."""

    attribute: str

    def matches(self, row: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        """A specialised row filter equivalent to :meth:`matches`.

        Built once per batch pipeline and applied row by row from a C-driven
        comprehension, so the per-row cost is a closure call on captured
        constants instead of a method dispatch plus attribute reads.  The
        default falls back to the bound :meth:`matches`.
        """
        return self.matches

    @property
    def column(self) -> str | None:
        """The attribute :meth:`condition_source` tests, or ``None`` when the
        fragment needs the whole row."""
        return None

    def condition_source(self, index: int, value: str) -> tuple[str, dict[str, Any]]:
        """A Python expression testing this predicate, plus its environment.

        ``value`` is the source text of the predicate's input: the value of
        :attr:`column`, or the row itself when that is ``None``.  The
        fragments of every predicate in a :class:`PredicateSet` are
        ``and``-joined into one compiled comprehension -- over row dicts in
        :meth:`PredicateSet.batch_kernel`, over column vectors in
        :meth:`PredicateSet.count_kernel` -- so the per-row cost drops from
        one closure call per predicate to inline comparisons.  ``index``
        uniquifies the environment names of this predicate's constants.  The
        default falls back to calling the :meth:`selector` closure.
        """
        name = f"_predicate{index}"
        return f"{name}({value})", {name: self.selector()}

    def constraint(self) -> ValueConstraint:
        raise NotImplementedError

    @property
    def lookup_values(self) -> tuple[Any, ...] | None:
        """The explicit values an index would probe, if enumerable."""
        return None


@dataclass(frozen=True)
class Equals(Predicate):
    """``attribute = value``"""

    attribute: str
    value: Any

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] == self.value

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        attribute, value = self.attribute, self.value
        return lambda row: row[attribute] == value

    @property
    def column(self) -> str:
        return self.attribute

    def condition_source(self, index: int, value: str) -> tuple[str, dict[str, Any]]:
        return f"{value} == _value{index}", {f"_value{index}": self.value}

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.equals(self.value)

    @property
    def lookup_values(self) -> tuple[Any, ...]:
        return (self.value,)

    def describe(self) -> str:
        return f"{self.attribute} = {self.value!r}"


@dataclass(frozen=True)
class InSet(Predicate):
    """``attribute IN (v1, ..., vN)``"""

    attribute: str
    values: tuple[Any, ...]

    def __init__(self, attribute: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "values", tuple(values))

    def matches(self, row: Mapping[str, Any]) -> bool:
        return row[self.attribute] in self.values

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        # Tuple containment, like matches: equality-based even for values a
        # set could not hash.
        attribute, values = self.attribute, self.values
        return lambda row: row[attribute] in values

    @property
    def column(self) -> str:
        return self.attribute

    def condition_source(self, index: int, value: str) -> tuple[str, dict[str, Any]]:
        # Tuple containment, matching selector()/matches().
        return f"{value} in _values{index}", {f"_values{index}": self.values}

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.in_set(self.values)

    @property
    def lookup_values(self) -> tuple[Any, ...]:
        return self.values

    def describe(self) -> str:
        return f"{self.attribute} IN ({', '.join(map(repr, self.values))})"


@dataclass(frozen=True)
class Between(Predicate):
    """``attribute BETWEEN low AND high`` (inclusive; either bound optional)."""

    attribute: str
    low: Any = None
    high: Any = None

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ValueError("a range predicate needs at least one bound")

    def matches(self, row: Mapping[str, Any]) -> bool:
        value = row[self.attribute]
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        # The bound checks mirror matches() exactly (including its treatment
        # of unordered values like NaN: a failed comparison keeps the row).
        attribute, low, high = self.attribute, self.low, self.high
        if low is None:
            return lambda row: not row[attribute] > high
        if high is None:
            return lambda row: not row[attribute] < low
        return lambda row: not (row[attribute] < low or row[attribute] > high)

    @property
    def column(self) -> str:
        return self.attribute

    def condition_source(self, index: int, value: str) -> tuple[str, dict[str, Any]]:
        # Negated-exclusion form, like selector(): a failed comparison
        # (e.g. NaN) keeps the row, exactly as matches() does.
        low, high = f"_low{index}", f"_high{index}"
        if self.low is None:
            return f"not {value} > {high}", {high: self.high}
        if self.high is None:
            return f"not {value} < {low}", {low: self.low}
        return (
            f"not ({value} < {low} or {value} > {high})",
            {low: self.low, high: self.high},
        )

    def constraint(self) -> ValueConstraint:
        return ValueConstraint.between(self.low, self.high)

    def describe(self) -> str:
        return f"{self.attribute} BETWEEN {self.low!r} AND {self.high!r}"


@dataclass(frozen=True)
class ExpressionPredicate(Predicate):
    """A computed-expression filter, e.g. ``g + rho BETWEEN 23 AND 25``.

    Expression predicates cannot be used for index or CM lookups; they are
    applied as residual filters only.  ``attribute`` names the expression for
    reporting purposes.
    """

    attribute: str
    function: Callable[[Mapping[str, Any]], bool]

    def matches(self, row: Mapping[str, Any]) -> bool:
        return bool(self.function(row))

    def selector(self) -> Callable[[Mapping[str, Any]], bool]:
        return self.function

    def constraint(self) -> ValueConstraint:
        return ValueConstraint()

    def describe(self) -> str:
        return f"expr({self.attribute})"


class PredicateSet:
    """A conjunction (AND) of predicates."""

    def __init__(self, predicates: Iterable[Predicate] = ()) -> None:
        self.predicates: tuple[Predicate, ...] = tuple(predicates)
        #: Compiled batch kernels keyed by projection tuple (None = no
        #: projection), built lazily by :meth:`batch_kernel`.
        self._kernels: dict[tuple[str, ...] | None, Callable[[list], list]] = {}
        self._count_kernel: CountKernel | None = None

    def __iter__(self) -> Iterator["Predicate"]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    def __bool__(self) -> bool:
        return bool(self.predicates)

    def matches(self, row: Mapping[str, Any]) -> bool:
        return all(predicate.matches(row) for predicate in self.predicates)

    def batch_filter(self, rows: list) -> list:
        """The rows surviving every predicate (batch twin of :meth:`matches`).

        One compiled comprehension over the batch (see :meth:`batch_kernel`):
        the same conjunction as :meth:`matches`, short-circuited row-major
        left to right, with the comparisons inlined rather than dispatched
        through per-predicate closures.  An empty set returns ``rows``
        unchanged.
        """
        if not self.predicates:
            return rows
        return self.batch_kernel()(rows)

    def batch_kernel(
        self, project: Sequence[str] | None = None
    ) -> Callable[[list], list]:
        """A compiled single-pass batch kernel: filter, optionally project.

        The kernel is one ``eval``-built list comprehension whose condition
        ``and``-joins every predicate's :meth:`Predicate.condition_source`
        fragment and whose element is either the row itself or, with
        ``project``, a fresh dict of just those columns — so a fused
        scan→filter→project pipeline runs as one C-driven pass per page with
        no intermediate batch materialisation.  Constants are bound through
        the compilation namespace; only generated identifiers appear in the
        source text.  Kernels are cached per projection tuple for the
        lifetime of this set.
        """
        key = tuple(project) if project is not None else None
        kernel = self._kernels.get(key)
        if kernel is None:
            env: dict[str, Any] = {}
            values: list[str] = []
            for index, predicate in enumerate(self.predicates):
                if predicate.column is None:
                    values.append("row")
                else:
                    values.append(f"row[_attr{index}]")
                    env[f"_attr{index}"] = predicate.column
            suffix = self._condition_suffix(values, env)
            if key is None:
                element = "row"
            else:
                env["_columns"] = key
                element = "{column: row[column] for column in _columns}"
            source = f"lambda rows: [{element} for row in rows{suffix}]"
            kernel = eval(compile(source, "<batch-kernel>", "eval"), env)
            self._kernels[key] = kernel
        return kernel

    def count_kernel(self) -> CountKernel:
        """A compiled counter of matching rows over column vectors.

        Returns the columns the kernel reads -- attribute names, or ``None``
        for the rows themselves, which an :class:`ExpressionPredicate` tests
        -- and a function taking one equal-length sequence per column.  It
        loops over their ``zip`` and counts the positions passing the same
        ``and``-joined :meth:`Predicate.condition_source` fragments as
        :meth:`batch_kernel`, in the same order, so it agrees with
        :meth:`matches` row for row, exceptions included.  It only counts;
        no list of rows is built.  An empty set reads the rows and counts
        every one.  Compiled once per set.
        """
        if self._count_kernel is None:
            columns = list(dict.fromkeys(p.column for p in self.predicates)) or [None]
            env: dict[str, Any] = {}
            suffix = self._condition_suffix(
                [f"_v{columns.index(p.column)}" for p in self.predicates], env
            )
            targets = "".join(f"_v{position}, " for position in range(len(columns)))
            source = f"lambda columns: len([1 for ({targets}) in zip(*columns){suffix}])"
            count = eval(compile(source, "<count-kernel>", "eval"), env)
            self._count_kernel = (tuple(columns), count)
        return self._count_kernel

    def _condition_suffix(self, values: Sequence[str], env: dict[str, Any]) -> str:
        """The `` if ...`` clause testing every predicate, ``values[i]``
        being the source of predicate ``i``'s input; binds its constants
        into ``env``.  Empty for an empty set."""
        conditions: list[str] = []
        for index, (predicate, value) in enumerate(zip(self.predicates, values)):
            fragment, bindings = predicate.condition_source(index, value)
            conditions.append(f"({fragment})")
            env.update(bindings)
        return f" if {' and '.join(conditions)}" if conditions else ""

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(predicate.attribute for predicate in self.predicates)

    def indexable_predicates(self) -> list[Predicate]:
        """Predicates usable for index/CM lookups (not expression filters)."""
        return [p for p in self.predicates if not isinstance(p, ExpressionPredicate)]

    def best_by_attribute(self) -> dict[str, Predicate]:
        """The most selective indexable predicate per attribute.

        When several predicates constrain the same attribute (e.g. a local
        range filter plus a join-key equality bound by an inner probe), the
        lookup-driving one is the tightest: ``Equals`` beats ``InSet`` beats
        ``Between``.  All of them still apply as residual filters.  This is
        the single precedence rule shared by index probing, CM constraint
        derivation and :meth:`on_attribute`.
        """
        best: dict[str, Predicate] = {}
        for predicate in self.indexable_predicates():
            current = best.get(predicate.attribute)
            if current is None or self._selectivity_rank(predicate) < self._selectivity_rank(
                current
            ):
                best[predicate.attribute] = predicate
        return best

    def on_attribute(self, attribute: str) -> Predicate | None:
        """The most selective indexable predicate on ``attribute`` (or None)."""
        return self.best_by_attribute().get(attribute)

    @staticmethod
    def _selectivity_rank(predicate: Predicate) -> int:
        if isinstance(predicate, Equals):
            return 0
        if isinstance(predicate, InSet):
            return 1
        if isinstance(predicate, Between):
            return 2
        return 3

    def constraints(self) -> dict[str, ValueConstraint]:
        """Per-attribute value constraints (for CMs and the rewriter).

        One constraint per attribute, from its most selective predicate
        (:meth:`best_by_attribute`); the weaker predicates on the attribute
        remain residual filters.
        """
        return {
            attribute: predicate.constraint()
            for attribute, predicate in self.best_by_attribute().items()
        }

    def describe(self) -> str:
        if not self.predicates:
            return "TRUE"
        return " AND ".join(
            getattr(p, "describe", lambda: repr(p))() for p in self.predicates
        )

    @classmethod
    def of(cls, *predicates: Predicate) -> "PredicateSet":
        return cls(predicates)
