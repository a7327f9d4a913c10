"""``P2Quantile.add`` is bit-identical to the textbook P² update.

``ReferenceP2`` below is the straightforward form of the update (a cell scan,
a loop over the markers above it, all five desired positions advanced, and
separate parabolic/linear helpers).  The production ``P2Quantile.add`` is
written out by hand for speed and must perform the same float operations in
the same order, so after every observation its marker heights, positions and
estimate equal the reference's exactly, including on repeated values, values
equal to a marker height, ±inf and NaN.
"""

from __future__ import annotations

import math
import random
import struct
from typing import List

from hypothesis import given, settings, strategies as st

from repro.simulation.metrics import OnlineStats, P2Quantile

QUANTILES = (0.5, 0.9, 0.95, 0.99, 0.999)


class ReferenceP2(P2Quantile):
    """The P² update as a plain cell scan plus helper functions."""

    __slots__ = ()

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        heights = self._heights
        if self._count <= 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        # Locate the marker cell containing the observation.
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        increments = self._increments
        for i in range(5):
            desired[i] += increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                direction = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, direction)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, direction)
                positions[i] += direction

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._heights, self._positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._heights, self._positions
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])


class ReferenceStats(OnlineStats):
    """``OnlineStats`` whose estimators are :class:`ReferenceP2`."""

    __slots__ = ()

    def __init__(self, quantiles=None) -> None:
        super().__init__(quantiles)
        self._quantiles = {p: ReferenceP2(p) for p in self.tracked_quantiles}


def _bits(x: float):
    """Exact identity of a float: any NaN equals any NaN, and -0.0 != 0.0."""
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _same(a: List[float], b: List[float]) -> bool:
    return len(a) == len(b) and all(_bits(x) == _bits(y) for x, y in zip(a, b))


_FINITE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
_KINDS = st.sampled_from(["fresh", "fresh", "fresh", "repeat", "height", "special"])
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])


def _draw_stream(data, estimator: P2Quantile, length: int):
    """Yield values drawn one at a time, some equal to a current marker."""
    seen: List[float] = []
    for _ in range(length):
        kind = data.draw(_KINDS)
        if kind == "repeat" and seen:
            value = data.draw(st.sampled_from(seen))
        elif kind == "height" and estimator._heights:
            value = data.draw(st.sampled_from(list(estimator._heights)))
        elif kind == "special":
            value = data.draw(_SPECIAL)
        else:
            value = data.draw(_FINITE)
        seen.append(value)
        yield value


@settings(max_examples=120, deadline=None)
@given(data=st.data(), p=st.sampled_from(QUANTILES), length=st.integers(0, 120))
def test_add_matches_reference_after_every_observation(data, p, length):
    fast, slow = P2Quantile(p), ReferenceP2(p)
    for value in _draw_stream(data, fast, length):
        fast.add(value)
        slow.add(value)
        assert _same(fast._heights, slow._heights)
        assert _same(fast._positions, slow._positions)
        assert _bits(fast.value()) == _bits(slow.value())
        assert fast.count == slow.count


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(_FINITE, _SPECIAL, st.sampled_from([1.0, 2.0, 3.0])), max_size=80
    )
)
def test_online_stats_match_a_reference_backed_copy(values):
    fast = OnlineStats(quantiles=(0.9, 0.999))
    slow = ReferenceStats(quantiles=(0.9, 0.999))
    assert fast.tracked_quantiles == QUANTILES
    for value in values:
        fast.add(value)
        slow.add(value)
        assert _bits(fast.mean) == _bits(slow.mean)
        assert _bits(fast.variance) == _bits(slow.variance)
        assert _bits(fast.maximum) == _bits(slow.maximum)
        for p in QUANTILES:
            assert _bits(fast.quantile(100 * p)) == _bits(slow.quantile(100 * p))


def test_long_stream_of_heavy_tailed_values_matches_reference():
    rng = random.Random(7)
    values = [rng.paretovariate(1.5) for _ in range(20_000)]
    for p in QUANTILES:
        fast, slow = P2Quantile(p), ReferenceP2(p)
        for value in values:
            fast.add(value)
            slow.add(value)
        assert _same(fast._heights, slow._heights)
        assert _same(fast._positions, slow._positions)
        assert _bits(fast.value()) == _bits(slow.value())
