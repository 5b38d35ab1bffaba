"""Cross-backend kernel parity spot checks.

The kernel contract (:mod:`repro.kernels.base`) demands the NumPy and
pure-Python backends be **observationally identical**.  The test suite
asserts this over randomized workloads; with ``REPRO_CHECKS=1`` the
engine additionally re-runs every page kernel it actually executes on
the *other* backend and compares results in place — so a divergence
(say, a stale columnar cache after a missed ``Page.version`` bump)
raises at the exact page that produced it.  The batched region-geometry
kernel is checked against the per-region reference test it replaces.
"""

from __future__ import annotations

from typing import Any, Sequence, TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.curves import Curve
    from ..core.query_space import QuerySpace
    from ..core.region import ZRegion
    from ..kernels.base import KernelBackend
    from ..storage.page import Page

_PageResult = tuple[int, Sequence[int], Sequence[Sequence[int]]]


def _normalize(result: _PageResult) -> tuple[int, list[int], list[list[int]]]:
    count, selected, entries = result
    return (
        int(count),
        [int(index) for index in selected],
        [[int(value) for value in entry] for entry in entries],
    )


def spot_check_scan_page(
    active: "KernelBackend",
    curve: Any,
    space: "QuerySpace",
    page: "Page",
    base: int,
    result: _PageResult,
) -> None:
    """Compare one ``scan_page`` result against the other backend.

    ``result`` is what ``active`` returned; the reference value is
    computed by the first *other* registered backend over the page's
    materialized points (bypassing any per-page caches, so a stale
    memoized view on the active backend cannot hide itself).  No-op when
    only one backend is available.
    """
    from .. import kernels

    others = [name for name in kernels.available_backends() if name != active.name]
    if not others:
        return
    reference = kernels.backend(others[0])
    points = [record[1][0] for record in page.records]
    expected = _normalize(reference.page_entries(curve, space, points, base))
    got = _normalize(result)
    check(
        got == expected,
        f"kernel backends diverge on page {page.page_id}: "
        f"`{active.name}`.scan_page returned {got[0]} tuples "
        f"(selected={got[1][:8]}...), `{reference.name}` says {expected[0]} "
        f"(selected={expected[1][:8]}...); if the page was mutated, check "
        "for a missing Page.version bump",
    )


def spot_check_regions_intersect(
    z_curve: "Curve",
    regions: "Sequence[ZRegion]",
    space: "QuerySpace",
    hits: Sequence[bool],
) -> None:
    """Compare a ``regions_intersect`` result against per-region
    :meth:`~repro.core.region.ZRegion.intersects`."""
    expected = [region.intersects(z_curve, space) for region in regions]
    got = [bool(hit) for hit in hits]
    if got != expected:
        mismatched = [
            region
            for region, hit, want in zip(regions, got, expected)
            if hit != want
        ]
        check(
            False,
            f"regions_intersect gave {len(got)} answers for {len(regions)} "
            f"regions, {len(mismatched)} differing from ZRegion.intersects "
            f"against {type(space).__name__} (first: {mismatched[:1]!r})",
        )
