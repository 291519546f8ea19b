"""Rule registry for :mod:`repro.lint`.

Rules register themselves at import time through the
:func:`file_rule` decorator; the engine then runs every registered
rule over each parsed file, one file at a time.

Each rule carries an id (``RL###``, stable), a short kebab-case name
and a one-line description shown by ``python -m repro.lint
--list-rules``.  Every finding of every rule fails the run; an
exception to a rule is an entry in :mod:`repro.lint.contracts`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rule:
    """One registered rule.

    ``check`` takes a ``FileContext`` and yields diagnostics.
    ``scope`` optionally restricts the rule to modules for which
    ``scope(module_name)`` is true — the store-atomicity family, for
    example, only patrols the store layer.  A meta rule (the parse
    error) has no ``check``: the engine emits it itself.
    """

    id: str
    name: str
    description: str
    check: callable = None
    scope: callable = None


_REGISTRY: dict = {}


def _register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule


def meta_rule(id: str, name: str, description: str) -> Rule:
    """Register a rule the engine itself emits (no checker callable)."""
    return _register(Rule(id=id, name=name, description=description))


def file_rule(id: str, name: str, description: str,
              scope: callable = None):
    """Decorator: register ``fn(ctx) -> iterable[Diagnostic]``."""
    def decorate(fn):
        _register(Rule(id=id, name=name, description=description,
                       check=fn, scope=scope))
        return fn
    return decorate


def get_rule(rule_id: str) -> Rule:
    """Look a registered rule up by id (unknown ids raise KeyError)."""
    return _REGISTRY[rule_id]


def all_rules() -> list:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
