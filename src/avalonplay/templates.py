"""Loading and filling of the plain-text template resources.

Templates use literal ``{token}`` markers filled by exact string
replacement, so braces that are part of the template content (for example
JSON examples in vote instructions) never need escaping.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    path = resources.files("avalonplay").joinpath("resources", f"{name}.txt")
    return path.read_text(encoding="utf-8").rstrip("\n")


def fill(template: str, **tokens: object) -> str:
    out = template
    for key, value in tokens.items():
        out = out.replace("{" + key + "}", str(value))
    return out


def render(name: str, **tokens: object) -> str:
    return fill(load_template(name), **tokens)


def join_players(players: Iterable[int], spell: Callable[[int], str] = str) -> str:
    """Natural-language seat list in seat order: '1', '1 and 4', or
    '1, 2, and 6', with each seat written as `spell(seat)`."""
    parts = [spell(p) for p in sorted(players)]
    if len(parts) <= 1:
        return "".join(parts)
    if len(parts) == 2:
        return f"{parts[0]} and {parts[1]}"
    return ", ".join(parts[:-1]) + f", and {parts[-1]}"
