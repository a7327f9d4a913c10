"""Fault-spec parsing: any string either parses to finite fields or is refused.

A spec that parses must never carry ``nan`` or ``inf`` into the fault
injector, where NaN slips past every range check and an infinite rate or
factor stalls or poisons the run.  Every other string raises
:class:`ValueError`, never another exception.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.faults.spec import parse_fault_spec

#: Values that no field accepts, or only some fields do.
_ODD_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "-0", "0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789.e-+na", max_size=6),
)
_FRACTIONS = st.floats(min_value=0.0, max_value=1.0).map(repr)
_AMOUNTS = st.floats(min_value=1.01, max_value=1e4).map(repr)


def _numbers(key: str):
    """Mostly values ``key`` accepts, so that many specs parse."""
    valid = _FRACTIONS if key in ("p", "jitter") else _AMOUNTS
    return st.one_of(valid, valid, valid, _ODD_NUMBERS)


_CHOICES = {
    "dist": st.sampled_from(["exp", "fixed"]),
    "recovery": st.sampled_from(["requeue", "restart"]),
    "retries": st.integers(min_value=0, max_value=5).map(str),
}
#: kind -> (required key, optional keys)
_KEYS = {
    "crash": ("mttf", ["repair", "probation", "dist", "recovery"]),
    "stragglers": ("p", ["slowdown", "speculate"]),
    "taskfail": ("p", ["retries", "backoff", "jitter"]),
}


@st.composite
def _spec(draw) -> str:
    kinds = draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=1, unique=True))
    segments = []
    for kind in kinds:
        required, optional = _KEYS[kind]
        keys = [required] + draw(st.lists(st.sampled_from(optional), unique=True))
        fields = [
            f"{key}={draw(_CHOICES[key] if key in _CHOICES else _numbers(key))}"
            for key in keys
        ]
        segments.append(f"{kind}:{','.join(fields)}")
    return ";".join(segments)


def _finite_fields(spec) -> bool:
    for part in (spec.crash, spec.stragglers, spec.taskfail):
        if part is None:
            continue
        for value in vars(part).values():
            if isinstance(value, float) and not math.isfinite(value):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(_spec())
def test_a_spec_parses_to_finite_fields_or_raises_value_error(text):
    try:
        spec = parse_fault_spec(text)
    except ValueError:
        return
    assert spec is None or _finite_fields(spec)
