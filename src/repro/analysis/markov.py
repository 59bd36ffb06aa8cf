"""Continuous-time Markov models for repairable redundant systems.

The rejuvenation argument (§II.C/§IV: repair "retain[s] the resources
classical resilience mechanisms need") is quantified here: a k-of-n
system whose failed modules are repaired at rate mu has dramatically
higher steady-state availability and MTTF than the unrepaired system,
and both improve monotonically with the repair rate.

States are the number of *failed* modules, 0..n; failure transitions
occur at (n - i) * lambda (every working module can fail), repairs at
min(i, repair_crews) * mu.  The system is up while failed <= n - k.
"""

from __future__ import annotations

import numpy as np


class RepairableSystem:
    """Birth-death availability model for a k-of-n repairable system."""

    def __init__(
        self,
        n: int,
        k: int,
        failure_rate: float,
        repair_rate: float,
        repair_crews: int = 1,
    ) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if failure_rate <= 0:
            raise ValueError("failure rate must be positive")
        if repair_rate < 0:
            raise ValueError("repair rate must be non-negative")
        if repair_crews < 1:
            raise ValueError("need at least one repair crew")
        self.n = n
        self.k = k
        self.lam = failure_rate
        self.mu = repair_rate
        self.crews = repair_crews

    # ------------------------------------------------------------------
    def generator_matrix(self) -> np.ndarray:
        """The CTMC generator Q over states 0..n (number failed)."""
        size = self.n + 1
        q = np.zeros((size, size))
        for i in range(size):
            if i < self.n:
                q[i, i + 1] = (self.n - i) * self.lam
            if i > 0 and self.mu > 0:
                q[i, i - 1] = min(i, self.crews) * self.mu
            q[i, i] = -q[i].sum()
        return q

    def steady_state(self) -> np.ndarray:
        """Stationary distribution pi (pi Q = 0, sum pi = 1)."""
        q = self.generator_matrix()
        size = q.shape[0]
        # Replace one balance equation with the normalization constraint.
        a = np.vstack([q.T[:-1], np.ones(size)])
        b = np.zeros(size)
        b[-1] = 1.0
        solution, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(solution, 0.0, None) / solution.sum()

    def availability(self) -> float:
        """Steady-state probability that at least k modules work."""
        pi = self.steady_state()
        up_states = self.n - self.k  # failed in 0..n-k
        return float(pi[: up_states + 1].sum())

    def mttf(self) -> float:
        """Mean time to first system failure starting from all-working.

        Solves the absorbing-chain equations over the up states (failed
        in 0..n-k); the first down state is absorbing.
        """
        up = self.n - self.k + 1  # states 0..n-k are 'up'
        q = self.generator_matrix()
        q_up = q[:up, :up]
        # E[time to absorption] from each up state: Q_up t = -1.
        times = np.linalg.solve(q_up, -np.ones(up))
        return float(times[0])
