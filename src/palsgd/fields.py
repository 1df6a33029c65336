"""Config keys declared once: type, default and bound as dataclass field metadata.

A runtime dataclass declares each settable field with ``option(kind, default,
bounds...)``, which stores a ``Spec`` in the field's metadata. Two callers read
it: the dataclass's ``__post_init__`` through ``check_fields`` (direct API
use), and ``config.parse_config`` through ``specs`` and ``Spec.check`` (JSON
input, where ints are turned into floats). Both raise ``ConfigError`` naming
the field. A float key must be finite: not NaN, an infinity or an overflow.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields, replace


class ConfigError(ValueError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"config field '{field}': {reason}")
        self.field = field
        self.reason = reason


# accepted Python type and error-message name of each declared kind
_KINDS = {int: (numbers.Integral, "integer"), float: (numbers.Real, "number"),
          str: (str, "string"), bool: (bool, "boolean")}


@dataclass(frozen=True)
class Spec:
    """Type, default and bound of one key; a None default makes the key optional.
    `read_when` lists the values of the section's choice field (the field
    whose `choices` hold them) under which the key acts."""

    kind: type
    default: object = MISSING
    low: float | None = None
    high: float | None = None
    low_open: bool = False    # low itself is out of bounds
    high_open: bool = True    # high itself is out of bounds
    choices: tuple | None = None
    sequence: bool = False    # a non-empty list whose every element obeys the rule
    read_when: tuple | None = None

    def check(self, name: str, value):
        """The value as the run uses it, or ConfigError(name, ...)."""
        if value is None and self.default is None:
            return None
        if not self.sequence:
            return self._check_one(name, value)
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(name, f"expected a non-empty list, got {value!r}")
        return [self._check_one(name, v) for v in value]

    def _check_one(self, name: str, value):
        accepted, kind_name = _KINDS[self.kind]
        if not isinstance(value, accepted) or (isinstance(value, bool) and self.kind is not bool):
            raise ConfigError(name, f"expected {kind_name}, got {value!r}")
        if self.kind is float:
            if not abs(value) <= sys.float_info.max:  # NaN fails every comparison
                raise ConfigError(name, f"must be a finite number, got {value!r}")
            value = float(value)
        if self.choices is not None and value not in self.choices:
            raise ConfigError(name, f"must be one of {self.choices}, got {value!r}")
        too_low = self.low is not None and (value <= self.low if self.low_open else value < self.low)
        too_high = self.high is not None and (value >= self.high if self.high_open else value > self.high)
        if too_low or too_high:
            raise ConfigError(name, f"must be {self._bounds()}, got {value}")
        return value

    def _bounds(self) -> str:
        if self.low is not None and self.high is not None:
            return (f"in {'(' if self.low_open else '['}{self.low}, "
                    f"{self.high}{')' if self.high_open else ']'}")
        if self.low is not None:
            return f"{'>' if self.low_open else '>='} {self.low}"
        return f"{'<' if self.high_open else '<='} {self.high}"


def option(kind: type, default=MISSING, **bounds):
    """A dataclass field declared with its Spec; leave out default for a required field."""
    return field(default=default, metadata={"spec": Spec(kind, default, **bounds)})


def specs(cls, **defaults) -> dict[str, Spec]:
    """The declared fields of a dataclass by name; keyword arguments replace defaults."""
    out = {}
    for f in fields(cls):
        if "spec" in f.metadata:
            spec = f.metadata["spec"]
            out[f.name] = replace(spec, default=defaults[f.name]) if f.name in defaults else spec
    return out


def check_fields(obj) -> None:
    """Check every declared field of a dataclass instance against its Spec."""
    for f in fields(obj):
        spec = f.metadata.get("spec")
        if spec is not None:
            spec.check(f.name, getattr(obj, f.name))
