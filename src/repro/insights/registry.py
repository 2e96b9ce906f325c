"""Pluggable rule registry for the insight engine.

A *rule* is a named function from an
:class:`~repro.insights.engine.InsightContext` to a list of
:class:`~repro.insights.model.Insight` objects.  Rules declare which
context ingredients they need (``"profile"``, ``"trace"``, ``"sweep"``);
the engine skips — and reports as skipped — any rule whose requirements
the context cannot satisfy, so a profile-only analysis still runs every
rule that can work without a raw trace.

Registering a rule is one decorator::

    from repro.insights import registry

    @registry.rule(
        "my-rule",
        description="what it looks for",
        requires=("profile",),
    )
    def my_rule(ctx):
        return [Insight(rule="my-rule", ...)]

The built-in rules of :mod:`repro.insights.rules` register themselves on
import; third-party code can add/replace/remove rules at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.insights.engine import InsightContext
    from repro.insights.model import Insight

#: Context ingredients a rule may require.
REQUIREMENTS = ("profile", "trace", "sweep")

RuleFunc = Callable[["InsightContext"], List["Insight"]]


@dataclass(frozen=True)
class Rule:
    """One registered insight rule."""

    name: str
    description: str
    requires: tuple[str, ...]
    func: RuleFunc

    def __call__(self, context: "InsightContext") -> List["Insight"]:
        return self.func(context)


_REGISTRY: dict[str, Rule] = {}


def register(rule_obj: Rule, *, replace: bool = False) -> Rule:
    """Add ``rule_obj`` to the registry (``replace=True`` to override)."""
    for req in rule_obj.requires:
        if req not in REQUIREMENTS:
            raise ValueError(
                f"rule {rule_obj.name!r} requires unknown ingredient "
                f"{req!r}; valid: {REQUIREMENTS}"
            )
    if rule_obj.name in _REGISTRY and not replace:
        raise ValueError(f"rule {rule_obj.name!r} is already registered")
    _REGISTRY[rule_obj.name] = rule_obj
    return rule_obj


def rule(
    name: str,
    *,
    description: str,
    requires: Iterable[str] = ("profile",),
    replace: bool = False,
) -> Callable[[RuleFunc], RuleFunc]:
    """Decorator form of :func:`register`; returns the function unchanged."""

    def decorate(func: RuleFunc) -> RuleFunc:
        register(
            Rule(
                name=name,
                description=description,
                requires=tuple(requires),
                func=func,
            ),
            replace=replace,
        )
        return func

    return decorate


def unregister(name: str) -> Rule:
    """Remove and return a rule; KeyError if absent."""
    return _REGISTRY.pop(name)


def get_rule(name: str) -> Rule:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown insight rule {name!r}; registered: {rule_names()}"
        ) from None


def all_rules() -> list[Rule]:
    """Every registered rule, in stable (name) order."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def rule_names() -> list[str]:
    return sorted(_REGISTRY)
