"""Diversity management: variant pools and common-mode exposure (§II.B).

"Diversity helps building replicas of the same functionality but with
different implementations.  The aim is to avoid common-mode benign
failures and intrusions."  We model each variant as carrying a set of
vulnerability classes (toolchain bugs, shared IP-generator defects,
specification-level flaws); variants from the same vendor share more
classes than variants from different vendors; and *every* variant of a
functionality shares the specification classes — the residual common
mode even perfect implementation diversity cannot remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.sim.rng import RngStream


@dataclass(frozen=True)
class Variant:
    """One implementation of a functionality."""

    name: str
    functionality: str
    vendor: str
    vuln_classes: FrozenSet[str]


class VariantLibrary:
    """The pool of available variants for one functionality.

    ``generate`` builds a synthetic pool with a controlled overlap
    structure:

    * each variant gets ``unique_classes`` private vulnerability classes;
    * variants of the same vendor share ``vendor_classes`` classes
      (shared toolchain / code base);
    * all variants share ``spec_classes`` specification-level classes.

    The adversary's best exploit therefore fells all replicas when they
    run one variant, a vendor's worth when they share a vendor, and only
    the spec classes hit everything — which is exactly the diminishing-
    returns curve E3 measures.
    """

    def __init__(self, functionality: str) -> None:
        self.functionality = functionality
        self._variants: Dict[str, Variant] = {}

    @classmethod
    def generate(
        cls,
        functionality: str,
        n_variants: int,
        n_vendors: int,
        unique_classes: int = 3,
        vendor_classes: int = 2,
        spec_classes: int = 1,
    ) -> "VariantLibrary":
        """Build a synthetic pool (see class docstring for the structure)."""
        if n_variants < 1 or n_vendors < 1:
            raise ValueError("need at least one variant and one vendor")
        library = cls(functionality)
        spec = {f"{functionality}/spec{k}" for k in range(spec_classes)}
        for i in range(n_variants):
            vendor = f"vendor{i % n_vendors}"
            vendor_shared = {
                f"{functionality}/{vendor}/shared{k}" for k in range(vendor_classes)
            }
            unique = {f"{functionality}/v{i}/bug{k}" for k in range(unique_classes)}
            library.add(
                Variant(
                    name=f"{functionality}-v{i}",
                    functionality=functionality,
                    vendor=vendor,
                    vuln_classes=frozenset(spec | vendor_shared | unique),
                )
            )
        return library

    def add(self, variant: Variant) -> None:
        """Register a variant."""
        if variant.name in self._variants:
            raise ValueError(f"variant {variant.name!r} already in library")
        if variant.functionality != self.functionality:
            raise ValueError(
                f"variant {variant.name!r} implements {variant.functionality!r}, "
                f"library holds {self.functionality!r}"
            )
        self._variants[variant.name] = variant

    def get(self, name: str) -> Variant:
        """Look up a variant."""
        return self._variants[name]

    def names(self) -> List[str]:
        """All variant names, sorted."""
        return sorted(self._variants)

    def __len__(self) -> int:
        return len(self._variants)


class DiversityManager:
    """Assigns variants to replicas and scores the assignment.

    The default policy maximizes diversity: replicas receive distinct
    variants round-robin, spreading across vendors first.  When the pool
    is smaller than the replica set, variants repeat — and the exposure
    metrics quantify the resulting common mode.
    """

    def __init__(self, library: VariantLibrary) -> None:
        if len(library) == 0:
            raise ValueError("variant library is empty")
        self.library = library
        self.assignment: Dict[str, str] = {}  # replica -> variant name

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def assign(self, replicas: Sequence[str], limit_variants: Optional[int] = None) -> Dict[str, str]:
        """Assign variants to a whole set of replicas afresh, vendor-spread
        round-robin (a deployed group admits its members one by one).

        ``limit_variants`` restricts the usable pool (the E3 sweep axis:
        how much diversity money can buy).
        """
        pool = self._vendor_spread_order()
        if limit_variants is not None:
            if limit_variants < 1:
                raise ValueError("limit_variants must be >= 1")
            pool = pool[:limit_variants]
        self.assignment = {
            replica: pool[i % len(pool)] for i, replica in enumerate(replicas)
        }
        return dict(self.assignment)

    def admit(self, replica: str) -> str:
        """Give one newcomer a variant; no other member's entry moves.

        It gets the first variant, in vendor-spread order, that no member
        holds, or its round-robin position when all are held — so
        admitting a group member by member reproduces :meth:`assign`.
        """
        pool = self._vendor_spread_order()
        held = set(self.assignment.values())
        unheld = [name for name in pool if name not in held]
        variant = unheld[0] if unheld else pool[len(self.assignment) % len(pool)]
        self.assignment[replica] = variant
        return variant

    def next_variant_for(self, replica: str, rng: Optional[RngStream] = None) -> str:
        """Pick a *different* variant for a rejuvenating replica.

        Prefers the variant least used by the rest of the group; ties are
        broken deterministically (or randomly when ``rng`` is given).
        """
        current = self.assignment.get(replica)
        usage: Dict[str, int] = {name: 0 for name in self.library.names()}
        for other, variant in self.assignment.items():
            if other != replica:
                usage[variant] = usage.get(variant, 0) + 1
        candidates = [name for name in self.library.names() if name != current]
        if not candidates:
            return current if current is not None else self.library.names()[0]
        least = min(usage[name] for name in candidates)
        ties = [name for name in candidates if usage[name] == least]
        choice = rng.choice(ties) if (rng is not None and len(ties) > 1) else ties[0]
        self.assignment[replica] = choice
        return choice

    def variant_of(self, replica: str) -> str:
        """Current variant of a replica."""
        return self.assignment[replica]

    def _vendor_spread_order(self) -> List[str]:
        """Pool ordered to alternate vendors (maximize early diversity)."""
        by_vendor: Dict[str, List[str]] = {}
        for name in self.library.names():
            by_vendor.setdefault(self.library.get(name).vendor, []).append(name)
        order: List[str] = []
        queues = [by_vendor[v] for v in sorted(by_vendor)]
        index = 0
        while any(queues):
            queue = queues[index % len(queues)]
            if queue:
                order.append(queue.pop(0))
            index += 1
        return order

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def distinct_variants(self) -> int:
        """How many distinct variants the current assignment uses."""
        return len(set(self.assignment.values()))

    def vuln_assignment(self) -> Dict[str, FrozenSet[str]]:
        """replica -> vulnerability classes, for the exploit model (E3)."""
        return {
            replica: self.library.get(variant).vuln_classes
            for replica, variant in self.assignment.items()
        }
