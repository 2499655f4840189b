"""The one override rule shared by every configuration record."""

import math
from dataclasses import fields, replace

# the JSON kind of a config value by its Python type; records are absent,
# as their own `_override` call checks their fields
_KINDS = {bool: "a bool", int: "an integer", float: "a number",
          str: "a string", list: "a list", tuple: "a list",
          dict: "a JSON object"}


def _checked(value, default, where: str):
    """`value`, or a ValueError naming `where` unless it has the JSON kind
    of `default`: an integer also stands for a number, and comes back as
    that float, and a number must be finite; each item of a list must have
    the kind of the default's items."""
    want, got = _KINDS.get(type(default)), _KINDS.get(type(value))
    if want not in (None, got) and (want, got) != ("a number", "an integer"):
        raise ValueError(f"{where} must be {want}, got {value!r}")
    if want == "a number" and not math.isfinite(value):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    if want == "a list" and default:
        for item in value:
            _checked(item, default[0], f"each item of {where}")
    return float(value) if (want, got) == ("a number", "an integer") else value


def _override(base, changes: dict, record: str):
    """`base` with the values in `changes` in place of its own.

    `base` is a dataclass record, whose given fields `dataclasses.replace`
    swaps in (so the record's checks run again), or a dict, which is
    copied. A key that `base` lacks, or a value without the JSON kind of
    the one it replaces, is an error naming `record` and the key. An
    integer given for a float becomes that float, so that configs of one
    run serialize and digest alike.
    """
    _checked(changes, {}, record)
    is_dict = isinstance(base, dict)
    unknown = sorted(set(changes).difference(
        base if is_dict else (f.name for f in fields(base))))
    if unknown:
        raise ValueError(f"unknown {record} fields: {unknown}")
    changes = {key: _checked(value, base[key] if is_dict else getattr(base, key),
                             f"{record}.{key}")
               for key, value in changes.items()}
    return {**base, **changes} if is_dict else replace(base, **changes)
