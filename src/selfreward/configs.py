"""The type rule shared by the scenario configs.

``FishConfig``, ``AuctionConfig`` and ``LavaConfig`` each check their
fields' types here, by the fields' annotations, before their own table of
ranges: an ``int`` field takes an int, a ``float`` field an int or a float,
and neither takes a bool.  Any other value is a ValueError that names the
field, as a value out of range is, so a range test never meets a string.
"""

from __future__ import annotations

import dataclasses

# annotation -> (what the refusal asks for, the types that pass)
_RULES = {"int": ("an integer", (int,)), "float": ("a number", (int, float))}


def check_field_types(config) -> None:
    """Refuse a field of the dataclass ``config`` whose value is not of its
    annotated type; the ValueError names the field."""
    for spec in dataclasses.fields(config):
        what, types = _RULES[getattr(spec.type, "__name__", spec.type)]
        value = getattr(config, spec.name)
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"{spec.name} must be {what}, got {value!r}")
