"""Binding symbolic µProgram spaces to concrete subarray rows.

A µProgram references operands symbolically (:class:`~repro.uprog.uops.Space`);
the ``bbop`` instruction supplies concrete base rows at execution time.
:class:`RowLayout` is that binding, plus the overlap/capacity checks the
control unit performs before replaying a µProgram.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import DramGeometry
from repro.dram.rows import RowAddress, b_row, ctrl_row, data_row
from repro.errors import AllocationError
from repro.uprog.program import MicroProgram
from repro.uprog.uops import INPUT_SPACES, Space, URow


#: Every space a layout can bind, in the order of :meth:`RowLayout.cache_key`.
_BOUND_SPACES = (*INPUT_SPACES, Space.OUTPUT, Space.TEMP)


@dataclass(frozen=True)
class RowLayout:
    """Concrete D-group base rows for each operand space of a µProgram."""

    bases: dict[Space, int]

    def __post_init__(self) -> None:
        # The binding is fixed at construction, so its cache key is too:
        # computed once per layout, read on every dispatch.
        object.__setattr__(self, "_key",
                           tuple(map(self.bases.get, _BOUND_SPACES)))

    def base(self, space: Space) -> int:
        try:
            return self.bases[space]
        except KeyError:
            raise AllocationError(
                f"layout does not bind space {space}") from None

    def cache_key(self) -> tuple:
        """Hashable identity of this binding, for execution-plan caches:
        the base row of each operand space in a fixed order (``None``
        where unbound), built once when the layout is.

        Two layouts with equal keys resolve every symbolic row to the
        same address, so a plan compiled under one is valid under the
        other.  (``bases`` is a dict, so the dataclass itself is not
        hashable.)
        """
        return self._key

    def resolve(self, row: URow) -> RowAddress:
        """Translate a symbolic µProgram row into a subarray address."""
        if row.space is Space.CTRL:
            return ctrl_row(row.index)
        if row.space is Space.BGROUP:
            return b_row(row.index)
        return data_row(self.base(row.space) + row.index)

    def check(self, program: MicroProgram, geometry: DramGeometry) -> None:
        """Verify the program's operand regions fit, and that regions the
        program *writes* (output, temporaries) are disjoint from everything
        else.  Input regions may alias each other — using one vector as
        both sources of a binary operation is legal (reads only)."""
        inputs: list[tuple[str, int, int]] = []
        for spec in program.inputs:
            inputs.append((spec.space.value, self.base(spec.space),
                           spec.width))
        writes = [(Space.OUTPUT.value, self.base(Space.OUTPUT),
                   program.output.width)]
        if program.n_temp_rows:
            writes.append((Space.TEMP.value, self.base(Space.TEMP),
                           program.n_temp_rows))
        for name, base, width in inputs + writes:
            if base < 0 or base + width > geometry.data_rows:
                raise AllocationError(
                    f"operand region {name} [{base}, {base + width}) does "
                    f"not fit in {geometry.data_rows} data rows")
        for name_w, base_w, width_w in writes:
            for name_o, base_o, width_o in inputs + writes:
                if name_o == name_w:
                    continue
                if base_w < base_o + width_o and base_o < base_w + width_w:
                    raise AllocationError(
                        f"writable region {name_w} overlaps {name_o}")
