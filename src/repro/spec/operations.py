"""Operations: typed parameters plus predicate effects.

An :class:`Operation` is the unit the IPA analysis works on.  Its
*effects* are what the paper's ``@True``/``@False`` annotations declare;
its *precondition* (beyond the weakest precondition derived from the
invariants) can add application-specific guards.

The analysis augments operations by appending effects
(:meth:`Operation.with_extra_effects`); the pretty-printed difference
between the original and augmented operation is what the programmer is
asked to approve in Step 2 of the IPA recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from repro.errors import SpecError
from repro.logic.ast import Const, Formula, Term, TrueF, Var, hash_once
from repro.spec.effects import Effect, NumEffect


@hash_once
@dataclass(frozen=True)
class Operation:
    """A database operation, specified by its effects.

    ``params`` are the free variables effects may mention.  ``base``
    records the original operation name when this operation is an
    IPA-modified version (``enroll′`` has ``base="enroll"``).
    """

    name: str
    params: tuple[Var, ...]
    effects: tuple[Effect, ...]
    precondition: Formula = field(default_factory=TrueF)
    base: str | None = None

    def __post_init__(self) -> None:
        param_set = set(self.params)
        if len(param_set) != len(self.params):
            raise SpecError(f"operation {self.name}: duplicate parameters")
        for effect in self.effects:
            for arg in effect.args:
                if isinstance(arg, Var) and arg not in param_set:
                    raise SpecError(
                        f"operation {self.name}: effect {effect} uses "
                        f"unknown parameter {arg.name}"
                    )

    # -- queries -----------------------------------------------------------

    @property
    def original_name(self) -> str:
        """Name of the unmodified operation this one derives from."""
        return self.base or self.name

    def num_effects(self) -> tuple[NumEffect, ...]:
        return tuple(e for e in self.effects if isinstance(e, NumEffect))

    def touched_predicates(self) -> set[str]:
        """Names of predicates this operation assigns."""
        return {e.pred.name for e in self.effects}

    # -- construction ------------------------------------------------------

    def with_extra_effects(
        self, extra: Iterable[Effect], rename: str | None = None
    ) -> "Operation":
        """A copy with ``extra`` effects appended (duplicates skipped).

        This is how the repair step augments an operation; the ``base``
        field is set so reports can show original vs. modified.
        """
        extra = tuple(e for e in extra if e not in self.effects)
        return Operation(
            name=rename or self.name,
            params=self.params,
            effects=self.effects + extra,
            precondition=self.precondition,
            base=self.original_name,
        )

    def instantiate(
        self, binding: Mapping[Var, Const]
    ) -> tuple[Effect, ...]:
        """Ground this operation's effects with concrete constants."""
        missing = [p for p in self.params if p not in binding]
        if missing:
            raise SpecError(
                f"operation {self.name}: no binding for parameter(s) "
                + ", ".join(v.name for v in missing)
            )
        return tuple(e.rename(binding) for e in self.effects)

    def describe(self) -> str:
        """Multi-line rendering used by analysis reports."""
        params = ", ".join(f"{v.sort.name}: {v.name}" for v in self.params)
        lines = [f"{self.name}({params})"]
        for effect in self.effects:
            lines.append(f"    {effect}")
        return "\n".join(lines)

    def __str__(self) -> str:
        params = ", ".join(v.name for v in self.params)
        return f"{self.name}({params})"
