"""Fault plans: declarative, seed-driven descriptions of counter distortion.

The DASE/MISE/ASM estimators assume perfect hardware counters delivered
exactly at every ``estimate_interval`` boundary.  Real counter fabrics are
messier: values arrive noisy (sampling, clock-domain crossing), quantized
(narrow registers), late (interconnect backpressure on the status network),
or not at all (packet loss), and the auxiliary tag directory is itself a
*sampled* structure (paper §4.2, Eq. 13), so its ELLCMiss signal degrades
first when its sampling rate is cut.

A :class:`FaultPlan` names which of those distortions to apply, per
application, with what intensity.  It is a pure value object — frozen,
hashable, picklable — so it can ride inside a
:class:`~repro.harness.parallel.WorkloadJob` into a job process and
participate in job fingerprints.  All randomness is derived from
``plan.seed`` by the :class:`~repro.faults.inject.FaultInjector`, never
from global state, so the same plan produces the same perturbation
sequence in any process.

The **zero-intensity contract**: a plan whose every knob is at its default
(:meth:`FaultPlan.is_null`) must be indistinguishable from no plan at all
— bit-identical estimates, no RNG construction, no record copies.  This is
golden-enforced by ``tests/test_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Drop-interval semantics (see :class:`AppFaults.drop_mode`).
DROP_STALE = "stale"
DROP_SKIP = "skip"


@dataclass(frozen=True)
class AppFaults:
    """Fault intensities for one application's counter stream.

    Every default is the identity — an all-default ``AppFaults`` perturbs
    nothing and draws nothing.
    """

    #: σ of multiplicative lognormal noise applied to each Table-1 counter
    #: (``v' = v · exp(σ·g)``, g ~ N(0,1)); 0 = exact counters.
    noise_sigma: float = 0.0
    #: Quantization step for integer counters (values rounded to multiples
    #: of this); 0/1 = full resolution.
    quantize: int = 0
    #: Probability that an interval's counter packet is lost entirely.
    drop_prob: float = 0.0
    #: What a consumer sees for a dropped interval: ``"stale"`` re-delivers
    #: the previous delivered record (stale-value semantics); ``"skip"``
    #: delivers nothing, forcing the estimate to ``None`` for the interval.
    drop_mode: str = DROP_STALE
    #: Counter-delivery delay in whole intervals: at interval ``t`` the
    #: consumer sees the counters measured during interval ``t − delay``
    #: (skip semantics for the first ``delay`` intervals).
    delay: int = 0
    #: Multiplier (0 < r ≤ 1) on the ATD's effective set-sampling rate:
    #: the ELLCMiss estimate is re-quantized to the coarser granularity a
    #: slower-sampled tag directory would resolve.
    atd_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.quantize < 0:
            raise ValueError("quantize must be >= 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")
        if self.drop_mode not in (DROP_STALE, DROP_SKIP):
            raise ValueError(
                f"drop_mode must be {DROP_STALE!r} or {DROP_SKIP!r}"
            )
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if not 0.0 < self.atd_rate <= 1.0:
            raise ValueError("atd_rate must be in (0, 1]")

    @property
    def is_null(self) -> bool:
        """True when this spec is the identity (perturbs nothing)."""
        return (
            self.noise_sigma == 0.0
            and self.quantize <= 1
            and self.drop_prob == 0.0
            and self.delay == 0
            and self.atd_rate == 1.0
        )


@dataclass(frozen=True)
class FaultPlan:
    """Per-application fault intensities plus the seed that drives them.

    ``default`` applies to every application without an explicit entry in
    ``per_app`` (a tuple of ``(app_index, AppFaults)`` pairs — a tuple, not
    a dict, so the plan stays hashable and order-stable under pickling).
    """

    seed: int = 0
    default: AppFaults = field(default_factory=AppFaults)
    per_app: tuple[tuple[int, AppFaults], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for app, spec in self.per_app:
            if app < 0:
                raise ValueError("per_app indices must be >= 0")
            if app in seen:
                raise ValueError(f"duplicate per_app entry for app {app}")
            if not isinstance(spec, AppFaults):
                raise TypeError("per_app values must be AppFaults")
            seen.add(app)

    def for_app(self, app: int) -> AppFaults:
        for idx, spec in self.per_app:
            if idx == app:
                return spec
        return self.default

    @property
    def is_null(self) -> bool:
        """True when no application is perturbed — the zero-intensity plan
        that must be bit-identical to running with no plan at all."""
        return self.default.is_null and all(
            spec.is_null for _, spec in self.per_app
        )


def noise_plan(sigma: float, seed: int = 0) -> FaultPlan:
    """Convenience: uniform counter noise of the given σ on every app."""
    return FaultPlan(seed=seed, default=AppFaults(noise_sigma=sigma))
