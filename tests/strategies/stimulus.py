"""Hypothesis strategies for stimulus the engines must reject.

Every engine and backend raises the same exception type for the same
bad input (``tests/test_engine.py::TestTypedErrors``):

* a rate or temperature profile that is not finite (NaN or ±inf) is a
  :class:`~repro.common.exceptions.ConfigurationError`, raised before
  the first sample that holds it runs;
* a finite rate so large that the loop's arithmetic overflows (its
  Coriolis term ``rate * pi`` is already infinite) is a
  :class:`~repro.common.exceptions.SimulationError`;
* a finite temperature hot enough to drive a resonance below zero is a
  :class:`~repro.common.exceptions.ConfigurationError` (the sensor
  rejects it), and one cold enough to drive the loop non-finite is a
  :class:`~repro.common.exceptions.SimulationError`.

Each strategy draws ``(environment, expected exception type)``.
"""

import math

from hypothesis import strategies as st

from repro.common import ConfigurationError, SimulationError
from repro.sensors import Environment
from repro.sensors.environment import ConstantProfile, StepProfile

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Finite rates whose ``rate * pi`` overflows a double.
OVERFLOWING_RATES = st.floats(min_value=6e307, max_value=1.7e308) \
    | st.floats(min_value=-1.7e308, max_value=-6e307)
#: Finite temperatures past the sensor's range, down to the largest
#: finite doubles (the temperature sensor's reading overflows there).
HOT_TEMPERATURES = st.floats(min_value=1e5, max_value=1.7e308)
COLD_TEMPERATURES = st.floats(min_value=-1.7e308, max_value=-1e60)

#: kind -> (bad levels, exception type both engines raise for them)
KINDS = {
    "rate": (NON_FINITE, ConfigurationError),
    "temperature": (NON_FINITE, ConfigurationError),
    "overflow": (OVERFLOWING_RATES, SimulationError),
    "hot": (HOT_TEMPERATURES, ConfigurationError),
    "cold": (COLD_TEMPERATURES, SimulationError),
}


@st.composite
def bad_stimulus(draw):
    """``(environment, exception type)`` for one kind of bad stimulus."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    levels, expected = KINDS[kind]
    level = draw(levels)
    # the bad level holds from the start or arrives mid-run
    step_s = draw(st.sampled_from([None, 0.002]))
    temperature = kind in ("temperature", "hot", "cold")
    sane = 25.0 if temperature else 0.0
    profile = (ConstantProfile(level) if step_s is None
               else StepProfile(before=sane, after=level, step_time=step_s))
    if temperature:
        environment = Environment(rate_dps=ConstantProfile(0.0),
                                  temperature_c=profile)
    else:
        environment = Environment(rate_dps=profile,
                                  temperature_c=ConstantProfile(25.0))
    return environment, expected
