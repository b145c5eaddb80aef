"""Bayer mosaic indexing shared by the sensor simulation and the network inputs."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BayerOrder", "PATTERNS"]

PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")


@dataclass(frozen=True)
class BayerOrder:
    """2x2 color-filter layout, given row-major as e.g. "RGGB" (row 0: R G, row 1: G B)."""

    pattern: str = "RGGB"

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown Bayer pattern {self.pattern!r}, expected one of {PATTERNS}")

    def canonical_slots(self) -> tuple[int, int, int, int]:
        """Canonical filter index (RGGB ordering: R=0, G=1, G=2, B=3) for each of
        the four mosaic positions 2*(y%2) + (x%2)."""
        slots = []
        seen_g = 0
        for letter in self.pattern:
            if letter == "R":
                slots.append(0)
            elif letter == "B":
                slots.append(3)
            else:
                slots.append(1 + seen_g)
                seen_g += 1
        return tuple(slots)

    def channel_positions(self) -> dict[str, list[int]]:
        """Mosaic positions occupied by each color letter."""
        out: dict[str, list[int]] = {"R": [], "G": [], "B": []}
        for pos, letter in enumerate(self.pattern):
            out[letter].append(pos)
        return out
