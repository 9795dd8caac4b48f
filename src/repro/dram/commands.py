"""Command accounting: statistics and optional traces of executed commands.

Every performance and energy claim in the paper reduces to *how many AAP
and AP commands* an operation issues; :class:`CommandStats` is therefore
the central currency of the evaluation harness.  The functional simulator
also keeps an optional :class:`CommandTrace` so tests can assert on the
exact command sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.energy import DramEnergy
from repro.dram.geometry import DramGeometry
from repro.dram.rows import RowAddress
from repro.dram.timing import DramTiming


@dataclass
class CommandStats:
    """Counters for DRAM commands issued by a program or a whole run."""

    n_ap: int = 0
    n_aap: int = 0
    #: Sum over APs of wordlines activated (energy accounting).
    ap_wordlines: int = 0
    #: Sum over AAPs of (src wordlines, dst wordlines).
    aap_src_wordlines: int = 0
    aap_dst_wordlines: int = 0
    #: Host row reads/writes through the normal datapath (transposition).
    host_bits_read: int = 0
    host_bits_written: int = 0
    #: Paging traffic (runtime eviction layer): logical operand bits
    #: spilled to host and filled back.  Spill/fill moves through the
    #: transposition unit, so the raw channel traffic is *also* counted
    #: in ``host_bits_read``/``host_bits_written`` at the subarray; these
    #: counters exist so paging pressure is observable on its own.
    n_spills: int = 0
    n_fills: int = 0
    spill_bits: int = 0
    fill_bits: int = 0

    def record_ap(self, n_wordlines: int) -> None:
        """Account one AP command activating ``n_wordlines`` rows."""
        self.n_ap += 1
        self.ap_wordlines += n_wordlines

    def record_aap(self, src_wordlines: int, dst_wordlines: int) -> None:
        """Account one AAP command."""
        self.n_aap += 1
        self.aap_src_wordlines += src_wordlines
        self.aap_dst_wordlines += dst_wordlines

    def record_spill(self, bits: int) -> None:
        """Account one shard eviction of ``bits`` operand bits."""
        self.n_spills += 1
        self.spill_bits += bits

    def record_fill(self, bits: int) -> None:
        """Account one shard fault-in of ``bits`` operand bits."""
        self.n_fills += 1
        self.fill_bits += bits

    @property
    def n_commands(self) -> int:
        """Total composite commands issued."""
        return self.n_ap + self.n_aap

    @property
    def n_activations(self) -> int:
        """Total ACTIVATE operations (an AAP contains two)."""
        return self.n_ap + 2 * self.n_aap

    def latency_ns(self, timing: DramTiming) -> float:
        """Serial latency of the recorded command stream in one bank."""
        return self.n_ap * timing.ap_ns + self.n_aap * timing.aap_ns

    def command_energy_nj(self, timing: DramTiming, geometry: DramGeometry,
                          energy: DramEnergy) -> float:
        """Energy of the recorded AP/AAP commands alone."""
        base = energy.act_pre_nj_chip(timing) * geometry.chips_per_rank
        extra = energy.extra_wordline_factor
        ap_nj = self.n_ap * base + extra * base * (
            self.ap_wordlines - self.n_ap)
        aap_nj = 2 * self.n_aap * base + extra * base * (
            self.aap_src_wordlines + self.aap_dst_wordlines - 2 * self.n_aap)
        return ap_nj + aap_nj

    def energy_nj(self, timing: DramTiming, geometry: DramGeometry,
                  energy: DramEnergy) -> float:
        """Energy of the recorded commands plus host I/O."""
        io_nj = energy.io_nj(self.host_bits_read + self.host_bits_written)
        return self.command_energy_nj(timing, geometry, energy) + io_nj

    def accumulate(self, other: "CommandStats") -> None:
        """Add ``other``'s counters into this object in place.

        The stacked executor computes one per-bank :class:`CommandStats`
        for a whole µProgram and folds it into every participating bank's
        counters, so bank stats match the per-bank path exactly.
        """
        self.n_ap += other.n_ap
        self.n_aap += other.n_aap
        self.ap_wordlines += other.ap_wordlines
        self.aap_src_wordlines += other.aap_src_wordlines
        self.aap_dst_wordlines += other.aap_dst_wordlines
        self.host_bits_read += other.host_bits_read
        self.host_bits_written += other.host_bits_written
        self.n_spills += other.n_spills
        self.n_fills += other.n_fills
        self.spill_bits += other.spill_bits
        self.fill_bits += other.fill_bits

    def merged_with(self, other: "CommandStats") -> "CommandStats":
        """Return a new stats object combining both operands."""
        return CommandStats(
            n_ap=self.n_ap + other.n_ap,
            n_aap=self.n_aap + other.n_aap,
            ap_wordlines=self.ap_wordlines + other.ap_wordlines,
            aap_src_wordlines=(self.aap_src_wordlines
                               + other.aap_src_wordlines),
            aap_dst_wordlines=(self.aap_dst_wordlines
                               + other.aap_dst_wordlines),
            host_bits_read=self.host_bits_read + other.host_bits_read,
            host_bits_written=(self.host_bits_written
                               + other.host_bits_written),
            n_spills=self.n_spills + other.n_spills,
            n_fills=self.n_fills + other.n_fills,
            spill_bits=self.spill_bits + other.spill_bits,
            fill_bits=self.fill_bits + other.fill_bits,
        )

    def scaled(self, factor: int) -> "CommandStats":
        """Stats for ``factor`` repetitions of the recorded stream."""
        return CommandStats(
            n_ap=self.n_ap * factor,
            n_aap=self.n_aap * factor,
            ap_wordlines=self.ap_wordlines * factor,
            aap_src_wordlines=self.aap_src_wordlines * factor,
            aap_dst_wordlines=self.aap_dst_wordlines * factor,
            host_bits_read=self.host_bits_read * factor,
            host_bits_written=self.host_bits_written * factor,
            n_spills=self.n_spills * factor,
            n_fills=self.n_fills * factor,
            spill_bits=self.spill_bits * factor,
            fill_bits=self.fill_bits * factor,
        )


@dataclass(frozen=True)
class TraceEntry:
    """One executed composite command (for tests and debugging)."""

    kind: str  # "AP" or "AAP"
    src: RowAddress
    dst: RowAddress | None = None

    def __str__(self) -> str:
        if self.kind == "AP":
            return f"AP({self.src})"
        return f"AAP({self.src} -> {self.dst})"


@dataclass
class CommandTrace:
    """Ordered record of the composite commands a subarray executed."""

    entries: list[TraceEntry] = field(default_factory=list)

    def record(self, entry: TraceEntry) -> None:
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def clear(self) -> None:
        self.entries.clear()
