"""Architectural hybrids: small trusted hardware components (paper §III).

The paper argues hybridization should sit in a "complexity middle ground":
special-purpose circuits (a USIG is "essentially a sequential circuit,
driven by the counter register and a few additional registers"), hardened
against accidental faults with ECC, below the complexity of a full
fetch-decode-execute core.  This package provides:

* :mod:`~repro.hybrids.registers` — PlainRegister, EccRegister (real
  Hamming SEC-DED), TmrRegister: the storage options for hybrid state,
  with bitflip injection hooks (experiment E6).
* :mod:`~repro.hybrids.usig` — the USIG from MinBFT (Veronese et al.):
  a monotonic counter bound to message digests by HMAC, providing the
  non-equivocation guarantee that cuts BFT replica cost to 2f+1.
* :mod:`~repro.hybrids.complexity` — gate-equivalent complexity estimates
  for each design point, the x-axis of the E6 trade-off.
"""

from repro.hybrids.complexity import GateComplexity, estimate_complexity
from repro.hybrids.registers import (
    EccRegister,
    PlainRegister,
    Register,
    RegisterError,
    TmrRegister,
    make_register,
)
from repro.hybrids.usig import UI, Usig, UsigVerifier

__all__ = [
    "EccRegister",
    "GateComplexity",
    "PlainRegister",
    "Register",
    "RegisterError",
    "TmrRegister",
    "UI",
    "Usig",
    "UsigVerifier",
    "estimate_complexity",
    "make_register",
]
