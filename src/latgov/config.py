"""Simulation configuration and result documents, without NumPy.

The frozen dataclasses of a simulation scenario (:class:`SimConfig` and its
parts) and of its aggregate outcome (:class:`SimResult`), their checked
decoding from JSON documents (:func:`_from_doc`), and the quantile -> mode
-> conversion rows of ``report``. Every command reads its ``--config``
through these, so they import no NumPy: ``slo``, ``report`` and ``fit``
start without it, and only :mod:`latgov.simulator` (``simulate``) and
``replay`` load it.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, List, Tuple

from .governor import Mode, decide_simple
from .model import ContextProfile, ModelParams, context_conversion, numpy_for
from .telemetry import DEFAULT_WINDOW_CAPACITY, UX_MODES, json_type, json_types

POLICY_KINDS = ("none", "static_messaging", "letw")


def _json(value) -> str:
    """``value`` as JSON (``null``, ``true``, ``"x"``), else its ``repr``."""
    try:
        return json.dumps(value, allow_nan=False)
    except (TypeError, ValueError):
        return repr(value)


def _from_doc(cls, doc: dict, what: str):
    """Build a dataclass from a plain dict, rejecting unknown keys and
    values that do not fit their field's annotated type; a dataclass-typed
    field is decoded from its own dict the same way."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json_type(doc)}")
    hints = typing.get_type_hints(cls)  # the fields: these classes declare no ClassVar
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ValueError(f"unknown {what} field(s): {', '.join(unknown)}")
    values = {}
    for name, value in doc.items():
        hint = hints[name]
        if is_dataclass(hint):
            value = _from_doc(hint, value, name)
        elif type(value) not in json_types(hint):
            raise ValueError(
                f"{what} field {name} must be {getattr(hint, '__name__', hint)}, got {_json(value)}"
            )
        elif typing.get_origin(hint) is dict:  # JSON keys are strings; check the values
            of = typing.get_args(hint)[1]
            for k, v in value.items():
                if type(v) not in json_types(of):
                    raise ValueError(
                        f"{what} field {name}[{k!r}] must be {of.__name__}, got {_json(v)}"
                    )
        values[name] = value
    return cls(**values)


@dataclass(frozen=True)
class RailDistribution:
    """Log-normal confirmation-time model, optionally shifted by congestion."""

    mu_log: float = math.log(1.4)   # log of the median latency
    sigma_log: float = 0.5207      # log-space std, fit to the p99 tail anchor
    shift_s: float = 0.0           # additive congestion shift, seconds

    def __post_init__(self) -> None:
        if self.sigma_log < 0.0:
            raise ValueError(f"sigma_log must be >= 0, got {self.sigma_log}")
        if self.shift_s < 0.0:
            raise ValueError(f"shift_s must be >= 0, got {self.shift_s}")

    @classmethod
    def from_median(cls, median_s: float, sigma_log: float, shift_s: float = 0.0):
        if not median_s > 0.0:
            raise ValueError(f"median must be > 0, got {median_s}")
        return cls(mu_log=math.log(median_s), sigma_log=sigma_log, shift_s=shift_s)

    def latency(self, z):
        """Latency exp(mu + sigma * z) + shift at standard-normal z; float or array."""
        np = numpy_for(z)
        exp = math.exp if np is None else np.exp
        return exp(self.mu_log + self.sigma_log * z) + self.shift_s

    def quantile(self, q: float) -> float:
        """Analytic quantile of the latency distribution."""
        from statistics import NormalDist  # only the quantile report needs it

        if not (0.0 < q < 1.0):
            raise ValueError(f"q must be inside (0, 1), got {q}")
        return self.latency(NormalDist().inv_cdf(q))


@dataclass(frozen=True)
class PolicySpec:
    """Governance policy under simulation."""

    kind: str = "letw"
    static_threshold_s: float = 2.0  # spinner threshold for static_messaging

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"policy kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if not self.static_threshold_s > 0.0:
            raise ValueError(f"static_threshold_s must be > 0, got {self.static_threshold_s}")


@dataclass(frozen=True)
class Mitigation:
    """Hazard multipliers applied while soft / deferred feedback is shown."""

    rho_soft: float = 0.6
    rho_deferred: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_deferred <= self.rho_soft <= 1.0):
            raise ValueError(
                "mitigation must satisfy 0 < rho_deferred <= rho_soft <= 1, got "
                f"rho_soft={self.rho_soft}, rho_deferred={self.rho_deferred}"
            )

    @property
    def multipliers(self) -> Tuple[float, float, float]:
        """Hazard multiplier per mode, in governor.MODE_ORDER order."""
        return (1.0, self.rho_soft, self.rho_deferred)


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; JSON documents use these exact field names."""

    sessions: int = 10_000
    seed: int = 42
    rail: RailDistribution = field(default_factory=RailDistribution)
    policy: PolicySpec = field(default_factory=PolicySpec)
    params: ModelParams = field(default_factory=ModelParams)
    ctx: ContextProfile = field(default_factory=ContextProfile)
    mitigation: Mitigation = field(default_factory=Mitigation)
    engagement_ceiling: float = 0.12
    window_capacity: int = DEFAULT_WINDOW_CAPACITY

    def __post_init__(self) -> None:
        if self.sessions <= 0:
            raise ValueError("sessions must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.engagement_ceiling < 1.0):
            raise ValueError(
                f"engagement_ceiling must be inside (0, 1), got {self.engagement_ceiling}"
            )
        if self.window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1, got {self.window_capacity}")
        if not math.isfinite(self.params.beta * self.ctx.m_c):
            raise ValueError("params.beta * ctx.m_c overflows a float; lower either")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        return _from_doc(cls, doc, "simulation config")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcomes of one run."""

    conversion_rate: float
    abandonment_rate: float
    repeat_rate: float
    mean_trust: float
    mode_shares: Dict[str, float]
    latency_p50: float
    latency_p90: float
    latency_p99: float

    def __post_init__(self) -> None:
        for name in ("conversion_rate", "abandonment_rate", "repeat_rate", "mean_trust"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be inside [0, 1], got {value}")
        for mode, share in self.mode_shares.items():
            if mode not in UX_MODES:
                raise ValueError(f"mode_shares key {mode!r} must be one of {UX_MODES}")
            if not 0.0 <= share <= 1.0:
                raise ValueError(f"mode share {mode} must be inside [0, 1], got {share}")
        q = (self.latency_p50, self.latency_p90, self.latency_p99)
        if not 0.0 <= q[0] <= q[1] <= q[2]:
            raise ValueError(f"latency quantiles must be ordered 0 <= p50 <= p90 <= p99, got {q}")
        if self.conversion_rate + self.abandonment_rate > 1.0 + 1e-9:
            raise ValueError("conversion and abandonment cannot exceed 1 combined")
        share_sum = sum(self.mode_shares.values())
        if abs(share_sum - 1.0) > 1e-9:
            raise ValueError(f"mode shares must sum to 1, got {share_sum}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SimResult":
        return _from_doc(cls, doc, "simulation result")


@dataclass(frozen=True)
class QuantileModeRow:
    """One row of the quantile -> mode -> expected-conversion report."""

    statistic: str
    latency_s: float
    mode: Mode
    conversion: float


def quantile_mode_rows(
    quantiles: Dict[str, float], params: ModelParams, ctx: ContextProfile
) -> List[QuantileModeRow]:
    """Map given latency quantiles through the budget rule and the
    conversion curve (model-implied, not observed, conversion)."""
    return [
        QuantileModeRow(
            statistic=name,
            latency_s=latency,
            mode=decide_simple(latency, 0.0, params),
            conversion=context_conversion(latency, ctx, params),
        )
        for name, latency in quantiles.items()
    ]
