"""Networked systems of SoCs (paper §I, the top layer of Fig. 1).

"More complex systems can be built through networked systems of systems
on chip.  First instances of networked SoC systems are already emerging
in the automotive, aeronautics, and CPS domain."  This package models
that layer: several :class:`~repro.soc.chip.Chip` instances joined by
serial inter-chip links (orders of magnitude slower than the on-chip
NoC), with transparent name-based routing so a replica group can *span*
chips.

Spanning a group across chips buys a failure-independence level no
on-chip mechanism can: a whole-chip failure (power loss, kill switch,
common-mode fabrication defect) takes out only the replicas on that
chip.  Experiment E11 quantifies both sides of the trade: cross-chip
latency cost vs chip-failure survival.

* :class:`~repro.sos.link.InterChipLink` — a serialized point-to-point
  channel between two chips' gateways.
* :class:`~repro.sos.system.MultiChipSystem` — the fabric of chips:
  global name registry, off-chip tunnelling, chip-level fault injection.
* :func:`~repro.sos.builder.build_spanning_group` — one
  :class:`~repro.bft.group.ReplicaGroup` across several chips: its
  launcher puts member i on chip i mod k; the chip a member is on is
  :meth:`MultiChipSystem.owner_chip` of its name.
"""

from repro.sos.builder import build_spanning_group
from repro.sos.link import InterChipLink, InterChipLinkConfig
from repro.sos.system import MultiChipSystem

__all__ = [
    "InterChipLink",
    "InterChipLinkConfig",
    "MultiChipSystem",
    "build_spanning_group",
]
