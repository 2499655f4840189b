"""The one override rule shared by every configuration record."""

from dataclasses import fields, replace


def _override(base, changes: dict, record: str):
    """`base` with the values in `changes` in place of its own.

    `base` is a dataclass record, whose given fields `dataclasses.replace`
    swaps in (so the record's checks run again), or a dict, which is
    copied. A key that `base` lacks is an error naming `record` and the key.
    """
    if not isinstance(changes, dict):
        raise ValueError(f"{record} must be a JSON object")
    is_dict = isinstance(base, dict)
    unknown = sorted(set(changes).difference(
        base if is_dict else (f.name for f in fields(base))))
    if unknown:
        raise ValueError(f"unknown {record} fields: {unknown}")
    return {**base, **changes} if is_dict else replace(base, **changes)
