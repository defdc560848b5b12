"""Configuration for the SMT, power, thermal, and sedation models.

The dataclasses here encode Table 1 of the paper plus the knobs introduced by
the reproduction (most importantly :attr:`ThermalConfig.time_scale`, which
compresses thermal time so that a pure-Python cycle-level simulation can
reproduce phenomena the authors observed over 500 M cycles).

Two presets are provided:

* :func:`paper_config` — the unscaled Table-1 parameters (4 GHz, 500 M-cycle
  quantum, 20 k-cycle sensor interval).  Faithful but far too slow to simulate
  end-to-end in Python; kept as the reference point.
* :func:`scaled_config` — the default for tests, examples and benchmarks.
  All thermal time constants and the OS quantum are divided by
  ``time_scale`` so the heat-up : cool-down : quantum ratios (≈ 1 : 10 : 100)
  survive intact.  See DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .faults.plan import FaultPlan

#: Paper operating points (Kelvin), from §4/§5 of the paper.  Two sedation
#: thresholds are shifted relative to the paper's (356, 355) because this
#: reproduction's rate→temperature ladder is compressed relative to the
#: authors' HotSpot network: the upper threshold sits at 356.5 K (clear of
#: the hottest benign pairs) and the lower at 354.4 K — still "just above
#: [the 354 K] normal operation", and below the level the attack's average
#: power holds the die-local region at, so a sedated attacker is released
#: only after the neighborhood has genuinely drained.  The §5.6 benchmark
#: sweeps the thresholds and shows the defense is not sensitive to the
#: exact choice.
EMERGENCY_TEMPERATURE_K = 358.0
UPPER_THRESHOLD_K = 356.5
LOWER_THRESHOLD_K = 354.2
NORMAL_OPERATING_K = 354.0

#: The paper's clock frequency (4 GHz) used to convert cycles to seconds.
PAPER_FREQUENCY_HZ = 4.0e9

#: Default compression factor applied to thermal time (DESIGN.md §4).
DEFAULT_TIME_SCALE = 2000.0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int
    latency: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"{self.name}: sizes must be positive")
        if self.size_bytes % (self.assoc * self.line_bytes) != 0:
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )
        if self.latency < 1:
            raise ConfigError(f"{self.name}: latency must be >= 1 cycle")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class MachineConfig:
    """SMT pipeline parameters (Table 1 of the paper).

    The paper's machine: 6-wide out-of-order issue, 128-entry RUU, 32-entry
    LSQ, 2 memory ports, 64 KB 4-way 2-cycle L1s, 2 MB 8-way 12-cycle shared
    L2, 300-cycle memory, 2 SMT contexts, ICOUNT fetch from up to two threads
    per cycle, and squash-on-L2-miss.
    """

    num_threads: int = 2
    fetch_width: int = 8
    fetch_threads_per_cycle: int = 2
    fetch_queue_size: int = 16
    decode_latency: int = 2
    issue_width: int = 6
    commit_width: int = 6
    ruu_size: int = 128
    lsq_size: int = 32
    int_alus: int = 4
    int_mults: int = 1
    fp_alus: int = 2
    mem_ports: int = 2
    memory_latency: int = 300
    fetch_policy: str = "icount"
    #: Statically partition the issue window per thread (each context gets
    #: ruu_size // num_threads entries).  A real SMT design point (e.g. the
    #: Pentium 4 partitioned its queues); used by the ablation benchmark to
    #: show that heat stroke is NOT a resource-monopolization attack —
    #: partitioning blunts variant1 but cannot stop variant2.
    ruu_partitioned: bool = False
    squash_on_l2_miss: bool = True
    branch_mispredict_penalty: int = 8
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 64, 2, name="l1i")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 4, 64, 2, name="l1d")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 64, 12, name="l2")
    )

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigError("num_threads must be >= 1")
        if self.fetch_threads_per_cycle < 1:
            raise ConfigError("fetch_threads_per_cycle must be >= 1")
        if self.fetch_policy not in ("icount", "round_robin"):
            raise ConfigError(f"unknown fetch policy {self.fetch_policy!r}")
        if self.issue_width < 1 or self.commit_width < 1 or self.fetch_width < 1:
            raise ConfigError("pipeline widths must be >= 1")
        if self.ruu_size < 2 * self.num_threads or self.lsq_size < self.num_threads:
            raise ConfigError("RUU/LSQ too small for the thread count")


@dataclass(frozen=True)
class ThermalConfig:
    """Package, die, and time-scaling parameters.

    ``time_scale`` compresses thermal time relative to cycles: one simulated
    cycle advances the thermal state by ``time_scale / frequency_hz`` seconds.
    Power is still computed against the *real* frequency, so power densities
    (and therefore steady-state temperatures) are unchanged; only transients
    run faster.  ``ideal_sink`` models the paper's infinite-heat-removal
    package: block temperatures are pinned at the normal operating point.
    """

    frequency_hz: float = PAPER_FREQUENCY_HZ
    vdd: float = 1.1
    ambient_k: float = 318.0
    convection_resistance_k_per_w: float = 0.8
    heatsink_thickness_mm: float = 6.9
    emergency_k: float = EMERGENCY_TEMPERATURE_K
    normal_operating_k: float = NORMAL_OPERATING_K
    sensor_interval: int = 50
    time_scale: float = DEFAULT_TIME_SCALE
    ideal_sink: bool = False
    #: Real-time thermal constants of the three-layer hot-spot path
    #: (die block -> die-local region -> spreader region -> sink).  The block
    #: constant enables the ~1 ms attack heat-up the paper reports; the local
    #: constant governs the ~10 ms stop-and-go cool-down; the spreader
    #: constant keeps the cooling asymptote warm across stall periods
    #: (DESIGN.md §2, calibration targets §7).
    block_time_constant_s: float = 0.7e-3
    local_time_constant_s: float = 3.0e-3
    spreader_time_constant_s: float = 15.0e-3
    #: Gaussian noise (1 sigma, Kelvin) added to every sensor reading; real
    #: on-die thermal sensors are imprecise, and the defense must not be
    #: sensitive to that (tests/test_sensor_noise.py).  0 disables noise.
    sensor_noise_k: float = 0.0
    sensor_noise_seed: int = 1234

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        if self.time_scale < 1.0:
            raise ConfigError("time_scale must be >= 1")
        if self.sensor_interval < 1:
            raise ConfigError("sensor_interval must be >= 1 cycle")
        if not (self.ambient_k < self.normal_operating_k < self.emergency_k):
            raise ConfigError(
                "require ambient < normal operating < emergency temperature"
            )
        if self.convection_resistance_k_per_w <= 0:
            raise ConfigError("convection resistance must be positive")
        if min(self.block_time_constant_s, self.local_time_constant_s,
               self.spreader_time_constant_s) <= 0:
            raise ConfigError("thermal time constants must be positive")
        if self.sensor_noise_k < 0:
            raise ConfigError("sensor noise must be non-negative")

    @property
    def seconds_per_cycle(self) -> float:
        """Scaled wall-clock seconds that one simulated cycle represents."""
        return self.time_scale / self.frequency_hz

    def cycles_from_seconds(self, seconds: float) -> int:
        """Convert a real-time duration to (scaled) simulation cycles."""
        return max(1, int(round(seconds / self.seconds_per_cycle)))


@dataclass(frozen=True)
class SedationConfig:
    """Selective-sedation parameters (§3.2 of the paper).

    The paper samples access rates every 1000 cycles and uses an EWMA factor
    ``x = 1/128`` (a 7-bit shift), retaining a ~0.5 M-cycle window.  Under the
    scaled clock the same *real-time* window is kept by shrinking the sample
    interval and the shift together (DESIGN.md §4).
    """

    upper_threshold_k: float = UPPER_THRESHOLD_K
    lower_threshold_k: float = LOWER_THRESHOLD_K
    sample_interval: int = 25
    ewma_shift: int = 4
    cooling_wait_multiplier: float = 2.0
    #: "gate" = the paper's design (stop fetching from the culprit);
    #: "throttle" = an ablation that merely slows the culprit's fetch to
    #: one cycle in ``throttle_modulus``.
    sedation_mode: str = "gate"
    throttle_modulus: int = 8
    #: Expected cooling time, in (scaled) cycles.  ``None`` derives it from
    #: the spreader time constant at simulator construction.
    expected_cooling_cycles: int | None = None
    report_to_os: bool = True

    def __post_init__(self) -> None:
        if self.lower_threshold_k >= self.upper_threshold_k:
            raise ConfigError("lower threshold must be below upper threshold")
        if self.sample_interval < 1:
            raise ConfigError("sample_interval must be >= 1 cycle")
        if not 0 <= self.ewma_shift <= 16:
            raise ConfigError("ewma_shift out of range [0, 16]")
        if self.cooling_wait_multiplier <= 0:
            raise ConfigError("cooling_wait_multiplier must be positive")
        if self.sedation_mode not in ("gate", "throttle"):
            raise ConfigError(f"unknown sedation mode {self.sedation_mode!r}")
        if self.throttle_modulus < 2:
            raise ConfigError("throttle_modulus must be >= 2")

    @property
    def ewma_x(self) -> float:
        """The EWMA blending factor ``x = 1 / 2**ewma_shift``."""
        return 1.0 / (1 << self.ewma_shift)


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level run parameters."""

    quantum_cycles: int = 250_000
    seed: int = 42
    dtm_policy: str = "stop_and_go"
    machine: MachineConfig = field(default_factory=MachineConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    sedation: SedationConfig = field(default_factory=SedationConfig)
    #: Optional fault-injection plan (:mod:`repro.faults`).  ``None`` means a
    #: healthy run.  The plan is part of this config and therefore of the run
    #: cache fingerprint: faulted and clean runs can never collide on disk.
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.quantum_cycles < 1:
            raise ConfigError("quantum_cycles must be >= 1")
        if self.dtm_policy not in (
            "ideal", "stop_and_go", "dvfs", "ttdfs", "fetch_gating", "sedation"
        ):
            raise ConfigError(f"unknown DTM policy {self.dtm_policy!r}")

    def with_policy(self, policy: str) -> SimulationConfig:
        """Return a copy of this config running under a different DTM policy."""
        return replace(self, dtm_policy=policy)

    def with_ideal_sink(self) -> SimulationConfig:
        """Return a copy with the infinite-heat-removal package."""
        return replace(
            self, thermal=replace(self.thermal, ideal_sink=True), dtm_policy="ideal"
        )

    def with_convection_resistance(self, r_k_per_w: float) -> SimulationConfig:
        """Return a copy with a different heat-sink convection resistance."""
        return replace(
            self,
            thermal=replace(self.thermal, convection_resistance_k_per_w=r_k_per_w),
        )

    def with_faults(self, faults: FaultPlan | None) -> SimulationConfig:
        """Return a copy of this config with a fault-injection plan."""
        return replace(self, faults=faults)

    def with_thresholds(self, upper_k: float, lower_k: float) -> SimulationConfig:
        """Return a copy with different sedation temperature thresholds."""
        return replace(
            self,
            sedation=replace(
                self.sedation, upper_threshold_k=upper_k, lower_threshold_k=lower_k
            ),
        )


def paper_config() -> SimulationConfig:
    """Table-1 parameters without time scaling (reference only; very slow)."""
    return SimulationConfig(
        quantum_cycles=500_000_000,
        thermal=ThermalConfig(sensor_interval=20_000, time_scale=1.0),
        sedation=SedationConfig(sample_interval=1000, ewma_shift=7),
    )


def scaled_config(
    time_scale: float = DEFAULT_TIME_SCALE,
    quantum_cycles: int | None = None,
    seed: int = 42,
) -> SimulationConfig:
    """The default scaled preset (DESIGN.md §4).

    ``time_scale`` divides every thermal time constant and the OS quantum.
    Sample and sensor intervals shrink proportionally (with floors) and the
    EWMA shift is reduced so that the averaging window tracks the same
    real-time span the paper used.
    """
    if time_scale < 1.0:
        raise ConfigError("time_scale must be >= 1")
    ratio = time_scale / DEFAULT_TIME_SCALE
    if quantum_cycles is None:
        quantum_cycles = max(1000, int(round(250_000 / ratio)))
    sensor_interval = max(10, int(round(50 / ratio)))
    sample_interval = max(5, int(round(25 / ratio)))
    # Keep the EWMA real-time window ~constant: window ≈ 2**shift * sample
    # cycles; the paper's window is 0.5 M unscaled cycles.
    target_window = max(20.0, 500_000.0 / time_scale)
    shift = 0
    while (1 << (shift + 1)) * sample_interval <= target_window and shift < 10:
        shift += 1
    return SimulationConfig(
        quantum_cycles=quantum_cycles,
        seed=seed,
        thermal=ThermalConfig(sensor_interval=sensor_interval, time_scale=time_scale),
        sedation=SedationConfig(sample_interval=sample_interval, ewma_shift=shift),
    )
