"""Shared test helpers."""

import pytest

from repro.sim.bitsim import extract_lane, pack_word
from repro.synth.verify import packed_simulator


class OneLane:
    """Plain-int ``set``/``get``/``step`` over a one-lane packed engine.

    For tests that drive a gate or mapped netlist one vector at a time.
    """

    def __init__(self, netlist):
        self.engine = packed_simulator(netlist, lanes=1)
        self._widths = self.engine.input_widths()

    def set(self, name: str, value: int) -> None:
        width = self._widths[name]
        if not 0 <= value < 1 << width:
            raise ValueError(
                f"value {value} does not fit input {name!r} ({width} bits)"
            )
        self.engine.set(name, pack_word([value], width))

    def get(self, name: str) -> int:
        return extract_lane(self.engine.get(name), 0)

    def step(self, cycles: int = 1) -> None:
        self.engine.step(cycles)


@pytest.fixture(scope="session")
def one_lane():
    """``one_lane(netlist)`` builds a :class:`OneLane` view."""
    return OneLane
