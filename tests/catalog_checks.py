"""Checks on the catalog that only the tests run: an entry's selection with
its weakest certificate, and whether a verdict is the one it expects."""

from orbitlift import regcheck
from orbitlift.catalog import CatalogEntry
from orbitlift.curvedsl import CoeffCurve, Grid
from orbitlift.rootflow import differentiable_selection
from orbitlift.verdicts import VERDICT_RANK


def certify_entry(entry: CatalogEntry, level: int = 10, tol: float = 1e-10):
    """Differentiable selection plus the weakest per-branch regularity report."""
    grid = Grid.dyadic(entry.domain[0], entry.domain[1], level)
    selection = differentiable_selection(CoeffCurve.from_exprs(list(entry.components)), grid, tol)
    reports = regcheck.certify_samples(selection.branches.T, entry.domain, levels=6)
    weakest = min(reports, key=lambda r: VERDICT_RANK[r.verdict])
    return selection, reports, weakest


def verdict_matches(entry: CatalogEntry, verdict: str) -> bool:
    if entry.at_least:
        return VERDICT_RANK[verdict] >= VERDICT_RANK[entry.expected_verdict]
    return verdict == entry.expected_verdict
