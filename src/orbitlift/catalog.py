"""Built-in example and counterexample curves.

The cusp family a_2(t) = -|t|^p (roots +-|t|^(p/2)) walks the regularity
ladder: p = 1 is only Lipschitz and its branches blow up, p = 3 is C^2 and
admits a C^1 selection, p = 5 is C^4 and the selection is twice
differentiable.  The designated sharpness pair (cusp-3-2 vs sqrt-cusp)
demonstrates how lowering the coefficient class flips the certified verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .verdicts import C1, TWICE, UNBOUNDED


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    components: tuple[str, ...]
    domain: tuple[float, float]
    declared_class: str
    expected_verdict: str
    at_least: bool  # expected_verdict is a floor, not an exact match
    note: str
    flip_partner: str | None = None


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="crossing-lines",
        components=("0", "-t^2"),
        domain=(-1.0, 1.0),
        declared_class="Cinf",
        expected_verdict=C1,
        at_least=True,
        note="roots +-t; the sorted choice kinks, the re-paired one is linear",
    ),
    CatalogEntry(
        name="double-root-line",
        components=("2*t", "t^2"),
        domain=(-1.0, 1.0),
        declared_class="Cinf",
        expected_verdict=TWICE,
        at_least=False,
        note="identically double root t; permanent collision keeps sorted labels",
    ),
    CatalogEntry(
        name="constant-cubic",
        components=("0", "-3", "-1"),
        domain=(-1.0, 1.0),
        declared_class="Cinf",
        expected_verdict=TWICE,
        at_least=False,
        note="three constant branches",
    ),
    CatalogEntry(
        name="cusp-3-2",
        components=("0", "-powabs(t,3)"),
        domain=(-1.0, 1.0),
        declared_class="C2",
        expected_verdict=C1,
        at_least=True,
        note="roots +-|t|^(3/2); C^2 coefficient is exactly the C^1 threshold",
        flip_partner="sqrt-cusp",
    ),
    CatalogEntry(
        name="sqrt-cusp",
        components=("0", "-powabs(t,1)"),
        domain=(-1.0, 1.0),
        declared_class="C0,1",
        expected_verdict=UNBOUNDED,
        at_least=False,
        note="roots +-|t|^(1/2); Lipschitz coefficient only, quotients grow ~sqrt(2)/level",
        flip_partner="cusp-3-2",
    ),
    CatalogEntry(
        name="cusp-5-2",
        components=("0", "-powabs(t,5)"),
        domain=(-1.0, 1.0),
        declared_class="C4",
        expected_verdict=C1,
        at_least=True,
        note="roots +-|t|^(5/2), themselves twice differentiable; the sampled"
        " selection carries the root-collapse floor near 0 and certifies C1",
    ),
)


def names() -> list[str]:
    return [e.name for e in CATALOG]


def get(name: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")
