"""Multi-quantum campaigns: long-horizon runs with state carry-over.

A campaign runs one simulator for many consecutive OS quanta (microarch and
thermal state persist across quantum boundaries) and collects per-quantum
statistics — the long-horizon view the paper's single-quantum figures cannot
show: does the attack's damage drift as the package saturates?  does the
defense stay stable over hundreds of milliseconds?
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationConfig
from ..errors import SimulationError
from .simulator import Simulator
from .stats import RunResult


@dataclass(frozen=True)
class QuantumRecord:
    """Per-quantum slice of a campaign (deltas, not cumulative)."""

    index: int
    committed: tuple[int, ...]
    ipc: tuple[float, ...]
    emergencies: int
    sedations: int


@dataclass(frozen=True)
class CampaignResult:
    """Outcome of a multi-quantum campaign."""

    workloads: tuple[str, ...]
    policy: str
    quanta: tuple[QuantumRecord, ...]
    final: RunResult

    def ipc_series(self, tid: int) -> list[float]:
        return [record.ipc[tid] for record in self.quanta]

    def emergencies_series(self) -> list[int]:
        return [record.emergencies for record in self.quanta]

    @property
    def total_emergencies(self) -> int:
        return sum(record.emergencies for record in self.quanta)

    def mean_ipc(self, tid: int) -> float:
        series = self.ipc_series(tid)
        return sum(series) / len(series) if series else 0.0

    def summary(self) -> str:
        lines = [
            f"campaign: {len(self.quanta)} quanta of "
            f"{self.final.cycles} cycles, policy={self.policy}"
        ]
        for tid, name in enumerate(self.workloads):
            series = self.ipc_series(tid)
            lines.append(
                f"  t{tid} {name:10s} ipc per quantum: "
                + " ".join(f"{value:.2f}" for value in series)
            )
        lines.append(
            "  emergencies per quantum: "
            + " ".join(str(v) for v in self.emergencies_series())
        )
        return "\n".join(lines)


def run_campaign(
    config: SimulationConfig,
    workloads: list[str],
    quanta: int,
    quantum_cycles: int | None = None,
) -> CampaignResult:
    """Run ``quanta`` consecutive quanta on one persistent simulator.

    Quanta are inherently sequential (thermal and microarchitectural state
    carry over), so a campaign runs in this process, uncached.
    """
    if quanta < 1:
        raise SimulationError("need at least one quantum")
    simulator = Simulator(config, workloads=workloads)
    cycles = quantum_cycles or config.quantum_cycles
    records: list[QuantumRecord] = []
    result: RunResult | None = None
    for index in range(quanta):
        result = simulator.run(quantum_cycles=cycles)
        records.append(
            QuantumRecord(
                index=index,
                committed=tuple(t.committed for t in result.threads),
                ipc=tuple(t.ipc for t in result.threads),
                emergencies=result.emergencies,
                sedations=result.sedations,
            )
        )
    assert result is not None
    return CampaignResult(
        workloads=tuple(workloads),
        policy=result.policy,
        quanta=tuple(records),
        final=result,
    )
