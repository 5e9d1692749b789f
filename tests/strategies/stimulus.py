"""Hypothesis strategies for stimulus the engines must reject.

Every engine and backend raises the same exception type for the same
bad input (``tests/test_engine.py::TestTypedErrors``):

* a rate or temperature profile that is not finite (NaN or ±inf) is a
  :class:`~repro.common.exceptions.ConfigurationError`, raised before
  the first sample that holds it runs;
* a finite rate so large that the loop's arithmetic overflows (its
  Coriolis term ``rate * pi`` is already infinite) is a
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


@st.composite
def bad_stimulus(draw):
    """``(environment, exception type)`` for one kind of bad stimulus."""
    kind = draw(st.sampled_from(["rate", "temperature", "overflow"]))
    level = draw(OVERFLOWING_RATES if kind == "overflow" else NON_FINITE)
    # the bad level holds from the start or arrives mid-run
    step_s = draw(st.sampled_from([None, 0.002]))
    sane = 25.0 if kind == "temperature" else 0.0
    profile = (ConstantProfile(level) if step_s is None
               else StepProfile(before=sane, after=level, step_time=step_s))
    if kind == "temperature":
        environment = Environment(rate_dps=ConstantProfile(0.0),
                                  temperature_c=profile)
    else:
        environment = Environment(rate_dps=profile,
                                  temperature_c=ConstantProfile(25.0))
    expected = SimulationError if kind == "overflow" else ConfigurationError
    return environment, expected
