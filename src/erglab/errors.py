"""Shared exception types and enumeration caps.

Caps guard every potentially explosive enumeration (full groups, closures,
product spaces, Cayley balls, unions of target orbits). The only override
of the defaults is the ERGLAB_CAPS environment variable, a comma-separated
list such as

    ERGLAB_CAPS="full_group=5000,product=200000"

An unknown name, a non-integer or a negative value in it is refused, so a
typo never leaves a bound unset. Only `full_group`, `full_group_table`
and `check_thm27` also take a per-call cap.
"""

from __future__ import annotations

import os


class ValidationError(ValueError):
    """Malformed input: broken bijection, bad pairing, schema violation."""


def _render_count(n: int) -> str:
    """n in decimal, or "at least 2^k" past 100 bits: Python refuses to
    convert an int of over 4300 digits to a string."""
    return str(n) if n.bit_length() <= 100 else f"at least 2^{n.bit_length() - 1}"


class CapExceeded(RuntimeError):
    """An enumeration or materialization guard tripped. `needed` stays
    exact; the message shortens a count too long to print."""

    def __init__(self, cap_name: str, needed: int, limit: int):
        self.cap_name = cap_name
        self.needed = needed
        self.cap = limit
        super().__init__(
            f"cap '{cap_name}' exceeded: need {_render_count(needed)}, "
            f"cap is {_render_count(limit)}"
        )


class CheckFailed(AssertionError):
    """An exact identity that must hold was violated. This is a bug signal."""


DEFAULT_CAPS = {
    "full_group": 20000,
    "closure": 20000,
    "product": 10**6,
    "ball": 4 * 10**6,
    "orbit_unions": 1 << 12,
}


def get_cap(name: str, override: int | None = None) -> int:
    """Resolve a cap: explicit argument wins, then ERGLAB_CAPS, then default.
    Every read checks all of ERGLAB_CAPS, whichever name it asks for."""
    caps: dict[str, int] = {}
    for item in filter(None, map(str.strip, os.environ.get("ERGLAB_CAPS", "").split(","))):
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in DEFAULT_CAPS:
            raise ValidationError(f"ERGLAB_CAPS entry {item!r} names no cap")
        if not value.isdecimal():
            raise ValidationError(f"ERGLAB_CAPS entry {item!r} is not a non-negative integer")
        caps.setdefault(key, int(value))  # the first entry of a name wins
    if override is not None:
        return int(override)
    if name not in DEFAULT_CAPS:
        raise ValidationError(f"unknown cap name {name!r}")
    return caps.get(name, DEFAULT_CAPS[name])
