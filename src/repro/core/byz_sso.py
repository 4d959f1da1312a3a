"""Byzantine-tolerant sequentially consistent snapshot object.

Same recipe as :class:`~repro.core.sso.SsoFastScan`, applied to
:class:`~repro.core.byz_aso.ByzantineAso`: UPDATE is unchanged; SCAN
returns ``extract(safeView)`` locally with zero communication.  The safe
view accumulates only *verified* views — the node's own good-lattice views
and ``f+1``-matching borrowed views — so a Byzantine node cannot poison the
local vector honest scans are served from.
"""

from __future__ import annotations

from repro.core.byz_aso import ByzantineAso
from repro.core.views import View
from repro.runtime.protocol import SEQUENTIAL, OpGen


class ByzantineSso(ByzantineAso):
    """Byzantine SSO with O(1), zero-message SCAN (``n > 3f``)."""

    CONSISTENCY = SEQUENTIAL

    def __init__(self, node_id: int, n: int, f: int) -> None:
        super().__init__(node_id, n, f)
        self._safe_view: View = self.V.view_of(())

    def _on_safe_view(self, view: View) -> None:
        self._safe_view = self.V.join(self._safe_view, view)

    def scan(self) -> OpGen:  # lint: ignore[RL005] — zero-communication op
        """SCAN() — local, no communication, no waiting (contributes 0 to
        every phase, so the per-D accounting stays total without
        annotations)."""
        yield from ()
        return self.V.extract(self._safe_view)


__all__ = ["ByzantineSso"]
