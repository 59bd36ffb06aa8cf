"""Replication protocol suite: PBFT, MinBFT, CFT, passive replication.

The paper positions active state-machine replication (Paxos/PBFT-style,
§II.A) and hybrid-assisted BFT (MinBFT-style, §III) as the mechanisms
on-chip resilience should reuse.  This package implements the four
protocol families the experiments compare:

* :mod:`~repro.bft.pbft`    — PBFT (Castro & Liskov): 3f+1 replicas,
  three-phase commit quorums, view change; tolerates f Byzantine.
* :mod:`~repro.bft.minbft`  — MinBFT (Veronese et al.): 2f+1 replicas,
  two-phase, USIG hybrid prevents equivocation; tolerates f Byzantine.
* :mod:`~repro.bft.cft`     — a leader/majority crash-tolerant protocol
  (Raft-normal-case analogue): 2f+1 replicas, tolerates f crashes only.
* :mod:`~repro.bft.passive` — primary/backup with a failure detector:
  1+1 replicas, cheap but with a visible failover gap (E8).

Authentication model: the NoC provides transport-authenticated channels
(the chip stamps the true sender on every envelope, standing in for
pairwise MACs; MAC compute/verify *time* is still charged through the
cost model).  Byzantine replicas can therefore lie in message fields and
equivocate per destination, but cannot impersonate others — and USIG
certificates are real HMACs they cannot forge.
"""

from repro.bft.app import KeyValueStore, StateMachine
from repro.bft.client import ClientConfig, ClientNode, ClientSession
from repro.bft.group import GroupConfig, ReplicaGroup, build_group
from repro.bft.messages import ClientReply, ClientRequest
from repro.bft.safety import SafetyRecorder

__all__ = [
    "ClientConfig",
    "ClientNode",
    "ClientReply",
    "ClientRequest",
    "ClientSession",
    "GroupConfig",
    "KeyValueStore",
    "ReplicaGroup",
    "SafetyRecorder",
    "StateMachine",
    "build_group",
]
