"""repro — Platform-based design for automotive sensor conditioning.

A Python reproduction of the system described in Fanucci et al.,
"Platform Based Design for Automotive Sensor Conditioning" (DATE 2005):
a generic mixed-signal platform (analog front-end, hardwired DSP,
8051-based programmable section) plus the platform-based design flow
used to derive a yaw-rate gyro conditioning ASIC from it.

Subpackages
-----------
``repro.common``    numeric substrate (fixed point, registers, noise, analysis)
``repro.sensors``   MEMS gyro and generic sensing-element models
``repro.afe``       analog front-end building blocks
``repro.dsp``       hardwired digital signal-processing IPs
``repro.mcu``       8051 microcontroller subsystem (ISS, buses, peripherals, JTAG)
``repro.gyro``      gyro conditioning chain (drive loop, sense chain)
``repro.platform``  generic platform, IP portfolio, case-study instance
``repro.engine``    generated co-simulation kernels (lane and lockstep fleets)
``repro.scenarios`` declarative scenario/campaign orchestrator + engine registry
``repro.store``     durable content-addressed result store (hits, audit, quarantine)
``repro.flow``      platform-based design flow (partitioning, DSE, prototyping)
``repro.eval``      metric harness, baselines and datasheet comparisons
"""

__version__ = "1.0.0"

from . import common

__all__ = ["common", "__version__"]
