"""Simulation result containers for the mixed-signal co-simulation."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..common.exceptions import ConfigurationError, SimulationError


def canonical_bytes(data: dict) -> bytes:
    """Deterministic byte serialisation of a JSON-compatible dict.

    Keys are sorted and separators fixed, so the same logical content
    always produces the same bytes — the foundation of every checksum in
    the result store.  Floats go through ``repr`` (binary64 round-trip),
    and non-finite values keep Python's ``NaN``/``Infinity`` spellings,
    which ``json.loads`` accepts back.
    """
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def content_digest(data: dict) -> str:
    """SHA-256 hex digest of :func:`canonical_bytes` of ``data``."""
    return hashlib.sha256(canonical_bytes(data)).hexdigest()


#: Section format of each trace dtype in a trace block: float traces
#: as little-endian binary64, bool traces as one 0/1 byte per sample.
_SECTION_CODES = {np.float64: "<f8", np.bool_: "u1"}


def _pack_trace(block: bytearray, values: np.ndarray, dtype) -> list:
    """Append a trace to ``block`` as one raw section.

    Returns the section's reference ``[code, offset, count]``: the
    section format (:data:`_SECTION_CODES`), its byte offset in the
    block and its sample count.
    """
    code = _SECTION_CODES[dtype]
    ref = [code, len(block), int(values.size)]
    block += np.asarray(values, dtype=code).tobytes()
    return ref


def _unpack_trace(block, ref: list, dtype) -> np.ndarray:
    """The trace a :func:`_pack_trace` reference locates in ``block``.

    Returns a writable ``dtype`` copy, never a view of ``block``.
    """
    _code, offset, count = ref
    return np.frombuffer(block, dtype=_SECTION_CODES[dtype], count=count,
                         offset=offset).astype(dtype)


@dataclass
class GyroSimulationResult:
    """Recorded traces from a :class:`~repro.platform.gyro_platform.GyroPlatform` run.

    All trace arrays share the same (decimated) time base ``time_s``.

    Attributes:
        time_s: time stamps of the recorded samples.
        sample_rate_hz: rate of the recorded traces (after decimation).
        true_rate_dps: applied (true) yaw rate.
        temperature_c: applied die temperature.
        rate_output_dps: digital rate estimate of the conditioning chain.
        rate_output_v: analog ratiometric rate output (around ~2.5 V).
        amplitude_control: AGC drive-gain trace (Fig. 5 / Fig. 6).
        amplitude_error: AGC amplitude-error trace.
        phase_error: PLL phase-error trace.
        vco_control: PLL frequency-control trace [Hz offset].
        pll_locked: PLL lock flag trace.
        running: start-up-complete flag trace.
        primary_pickoff_norm: normalised primary ADC samples (optional,
            recorded only when waveform recording is enabled).
        drive_word: drive-DAC word trace (optional).
        turn_on_time_s: measured turn-on time, if start-up completed.
        safe_mode: safe-mode latch state at the end of the run (None
            when no safe-mode monitor observed the run).
        safe_mode_events: overload episodes latched during the run.
        safe_mode_entry_s: time the latch first set, or None.
        overload_time_s: accumulated time the front end spent saturated.
    """

    time_s: np.ndarray
    sample_rate_hz: float
    true_rate_dps: np.ndarray
    temperature_c: np.ndarray
    rate_output_dps: np.ndarray
    rate_output_v: np.ndarray
    amplitude_control: np.ndarray
    amplitude_error: np.ndarray
    phase_error: np.ndarray
    vco_control: np.ndarray
    pll_locked: np.ndarray
    running: np.ndarray
    primary_pickoff_norm: Optional[np.ndarray] = None
    drive_word: Optional[np.ndarray] = None
    turn_on_time_s: Optional[float] = None
    safe_mode: Optional[bool] = None
    safe_mode_events: Optional[int] = None
    safe_mode_entry_s: Optional[float] = None
    overload_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        n = self.time_s.size
        for name in self._FLOAT_TRACES + self._BOOL_TRACES:
            arr = getattr(self, name)
            if arr.size != n:
                raise ConfigurationError(
                    f"trace {name!r} has {arr.size} samples, expected {n}")

    @property
    def duration_s(self) -> float:
        """Total recorded duration."""
        if self.time_s.size == 0:
            return 0.0
        return float(self.time_s[-1] - self.time_s[0])

    def settled_slice(self, fraction: float = 0.5) -> slice:
        """Index slice selecting the last ``fraction`` of the record."""
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError("fraction must be in (0, 1]")
        start = int(self.time_s.size * (1.0 - fraction))
        return slice(start, self.time_s.size)

    def mean_output_dps(self, fraction: float = 0.5) -> float:
        """Mean digital rate output over the settled tail of the record."""
        return float(np.mean(self.rate_output_dps[self.settled_slice(fraction)]))

    def mean_output_v(self, fraction: float = 0.5) -> float:
        """Mean analog rate output over the settled tail of the record."""
        return float(np.mean(self.rate_output_v[self.settled_slice(fraction)]))

    def lock_time_s(self) -> Optional[float]:
        """Time at which the PLL first reported lock, or None."""
        locked = np.nonzero(self.pll_locked)[0]
        if locked.size == 0:
            return None
        return float(self.time_s[locked[0]])

    def summary(self) -> Dict[str, float]:
        """Key figures of the run (for logging and quick inspection)."""
        return {
            "duration_s": self.duration_s,
            "final_rate_dps": float(self.rate_output_dps[-1]) if self.rate_output_dps.size else float("nan"),
            "final_output_v": float(self.rate_output_v[-1]) if self.rate_output_v.size else float("nan"),
            "locked": bool(self.pll_locked[-1]) if self.pll_locked.size else False,
            "turn_on_time_s": self.turn_on_time_s if self.turn_on_time_s is not None else float("nan"),
        }

    # -- serialisation ------------------------------------------------------

    _FLOAT_TRACES = ("time_s", "true_rate_dps", "temperature_c",
                     "rate_output_dps", "rate_output_v", "amplitude_control",
                     "amplitude_error", "phase_error", "vco_control")
    _BOOL_TRACES = ("pll_locked", "running")
    _WAVEFORMS = ("primary_pickoff_norm", "drive_word")   # optional floats
    _SCALARS = ("turn_on_time_s", "safe_mode", "safe_mode_events",
                "safe_mode_entry_s", "overload_time_s")
    #: ``(name, dtype)`` of every trace, in serialisation order.
    _TRACE_DTYPES = (tuple((name, np.float64)
                           for name in _FLOAT_TRACES + _WAVEFORMS)
                     + tuple((name, np.bool_) for name in _BOOL_TRACES))

    @classmethod
    def trace_blocks(cls, n_rec: int) -> Tuple[np.ndarray, np.ndarray]:
        """Zeroed float and bool blocks for an engine to record into: one
        row of ``n_rec`` samples per trace, in serialisation order."""
        return (np.zeros((len(cls._FLOAT_TRACES + cls._WAVEFORMS), n_rec)),
                np.zeros((len(cls._BOOL_TRACES), n_rec), dtype=bool))

    @classmethod
    def from_trace_blocks(cls, blocks, records: int, waveforms: bool,
                          **scalars) -> "GyroSimulationResult":
        """A result whose traces are the first ``records`` samples of the
        :meth:`trace_blocks` rows (views, not copies); the waveforms only
        with ``waveforms``.  ``scalars`` are the other fields."""
        floats, flags = blocks
        traces = dict(zip(cls._FLOAT_TRACES + cls._WAVEFORMS,
                          floats[:, :records]))
        traces.update(zip(cls._BOOL_TRACES, flags[:, :records]))
        if not waveforms:
            traces.update(dict.fromkeys(cls._WAVEFORMS))
        return cls(**traces, **scalars)

    def to_dict(self, block: Optional[bytearray] = None) -> dict:
        """JSON-compatible dict; :meth:`from_dict` restores it exactly.

        Float traces round-trip losslessly: Python floats keep full
        binary64 precision through ``json`` (repr round-trips), and
        :meth:`from_dict` rebuilds the float64/bool arrays.

        With a ``block``, every trace is appended to it as a raw section
        (:func:`_pack_trace`) and the dict holds the section's reference
        instead of a number list — the result store's encoding, which
        ``from_dict(data, block)`` reads back.
        """
        out = {"sample_rate_hz": self.sample_rate_hz}
        for name in self._SCALARS:
            out[name] = getattr(self, name)
        for name, dtype in self._TRACE_DTYPES:
            arr = getattr(self, name)
            out[name] = (None if arr is None
                         else arr.tolist() if block is None
                         else _pack_trace(block, arr, dtype))
        return out

    @classmethod
    def from_dict(cls, data: dict, block=None) -> "GyroSimulationResult":
        """Rebuild a result from :meth:`to_dict` output, bit-exact.

        ``block`` is the trace block a ``to_dict(block)`` call filled
        (any bytes-like object); pass it when ``data`` came from that
        call.
        """
        kwargs = {"sample_rate_hz": data["sample_rate_hz"]}
        for name in cls._SCALARS:
            kwargs[name] = data.get(name)
        for name, dtype in cls._TRACE_DTYPES:
            value = (data.get(name) if name in cls._WAVEFORMS
                     else data[name])
            kwargs[name] = (None if value is None
                            else np.asarray(value, dtype=dtype)
                            if block is None
                            else _unpack_trace(block, value, dtype))
        return cls(**kwargs)

    def digest(self) -> str:
        """Stable content digest of the recorded traces and scalars.

        Two results digest identically exactly when :meth:`to_dict`
        produces the same content — i.e. when every trace is bit-equal
        and every scalar matches.  This is what the result store
        checksums and the equivalence audit compare.
        """
        return content_digest(self.to_dict())


def concatenate_results(results: Sequence["GyroSimulationResult"]
                        ) -> "GyroSimulationResult":
    """Concatenate consecutive simulation segments into one result.

    Consecutive ``run()`` calls on one platform are exactly one
    continuous simulation split at recording boundaries, so the campaign
    layer and the chunked start-up loop stitch their segment traces back
    together with this.  The turn-on time and sample rate come from the
    last segment; waveform traces are concatenated only when every
    segment recorded them.
    """
    if not results:
        raise SimulationError("no simulation segments to concatenate")
    if len(results) == 1:
        return results[0]
    cls = GyroSimulationResult
    waveforms = all(r.primary_pickoff_norm is not None for r in results)
    traces = {name: np.concatenate([getattr(r, name) for r in results])
              for name, _ in cls._TRACE_DTYPES
              if waveforms or name not in cls._WAVEFORMS}
    return cls(**traces, **{name: getattr(results[-1], name)
                            for name in ("sample_rate_hz",) + cls._SCALARS})
