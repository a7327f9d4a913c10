"""Phase-Type (PH) distributions.

A PH distribution is the distribution of the time to absorption of a finite
continuous-time Markov chain with one absorbing state.  It is represented by
the pair ``(alpha, T)`` where ``alpha`` is the initial probability vector over
the transient phases and ``T`` is the sub-generator over those phases.  The
exit-rate vector is ``t = -T·1``.

PH distributions are the paper's modelling workhorse (§4): they are closed
under convolution and mixture, which is exactly what is needed to compose the
setup, map-wave, shuffle and reduce-wave stages of a job into a single job
processing-time distribution.

This module provides construction, moments, density/CDF evaluation, sampling,
the closure operations, scaling, and simple two-moment fitting (exponential /
Erlang / hyper-exponential) used to turn profiled task-time means and SCVs
into PH components.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np


class PhaseType:
    """A continuous Phase-Type distribution ``PH(alpha, T)``."""

    def __init__(self, alpha: Sequence[float], T: Sequence[Sequence[float]]) -> None:
        alpha_arr = np.asarray(alpha, dtype=float).reshape(-1)
        T_arr = np.asarray(T, dtype=float)
        if T_arr.ndim != 2 or T_arr.shape[0] != T_arr.shape[1]:
            raise ValueError("T must be a square matrix")
        if alpha_arr.shape[0] != T_arr.shape[0]:
            raise ValueError("alpha and T dimensions do not match")
        self._validate(alpha_arr, T_arr)
        self.alpha = alpha_arr
        self.T = T_arr

    @staticmethod
    def _validate(alpha: np.ndarray, T: np.ndarray, tol: float = 1e-9) -> None:
        if np.any(alpha < -tol):
            raise ValueError("alpha must be non-negative")
        if not math.isclose(float(alpha.sum()), 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"alpha must sum to 1, got {float(alpha.sum())!r}")
        off_diag = T - np.diag(np.diag(T))
        if np.any(off_diag < -tol):
            raise ValueError("off-diagonal entries of T must be non-negative")
        if np.any(np.diag(T) > tol):
            raise ValueError("diagonal entries of T must be non-positive")
        row_sums = T.sum(axis=1)
        if np.any(row_sums > tol):
            raise ValueError("row sums of T must be non-positive (exit rates non-negative)")

    # ------------------------------------------------------------ properties
    @property
    def order(self) -> int:
        """Number of transient phases."""
        return self.T.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Exit-rate vector ``t = -T·1``."""
        return -self.T.sum(axis=1)

    # --------------------------------------------------------------- moments
    def moment(self, k: int) -> float:
        """Raw moment ``E[X^k] = k! · alpha · (−T)^{-k} · 1``."""
        if k < 0:
            raise ValueError("moment order must be non-negative")
        if k == 0:
            return 1.0
        inv = np.linalg.inv(-self.T)
        acc = np.identity(self.order)
        for _ in range(k):
            acc = acc @ inv
        ones = np.ones(self.order)
        return float(math.factorial(k) * self.alpha @ acc @ ones)

    @property
    def mean(self) -> float:
        return self.moment(1)

    @property
    def second_moment(self) -> float:
        return self.moment(2)

    @property
    def variance(self) -> float:
        m1 = self.mean
        return self.moment(2) - m1 * m1

    @property
    def scv(self) -> float:
        """Squared coefficient of variation."""
        m1 = self.mean
        if m1 == 0:
            return float("nan")
        return self.variance / (m1 * m1)

    # ------------------------------------------------------------ evaluation
    def cdf(self, x: float) -> float:
        """``P(X ≤ x)``."""
        if x < 0:
            return 0.0
        # scipy is imported where it is used, so importing ``repro`` does
        # not load it.
        from scipy.linalg import expm

        ones = np.ones(self.order)
        return float(1.0 - self.alpha @ expm(self.T * x) @ ones)

    def sf(self, x: float) -> float:
        """Survival function ``P(X > x)``."""
        return 1.0 - self.cdf(x)

    def pdf(self, x: float) -> float:
        """Density ``f(x) = alpha · exp(Tx) · t``."""
        if x < 0:
            return 0.0
        from scipy.linalg import expm

        return float(self.alpha @ expm(self.T * x) @ self.exit_rates)

    def quantile(self, q: float, tol: float = 1e-8, max_iter: int = 200) -> float:
        """Numerical inverse CDF via bisection."""
        if not 0.0 <= q < 1.0:
            raise ValueError("q must be in [0, 1)")
        if q == 0.0:
            return 0.0
        hi = max(self.mean, 1e-9)
        while self.cdf(hi) < q and hi < 1e12:
            hi *= 2.0
        lo = 0.0
        for _ in range(max_iter):
            mid = (lo + hi) / 2.0
            if self.cdf(mid) < q:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol * max(1.0, hi):
                break
        return (lo + hi) / 2.0

    # -------------------------------------------------------------- sampling
    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` samples by simulating the underlying Markov chain."""
        if n < 0:
            raise ValueError("cannot draw a negative number of samples")
        exit_rates = self.exit_rates
        total_rates = -np.diag(self.T)
        samples = np.empty(n)
        for i in range(n):
            time = 0.0
            phase = int(rng.choice(self.order, p=self.alpha))
            while True:
                rate = total_rates[phase]
                if rate <= 0:
                    break
                time += rng.exponential(1.0 / rate)
                # Decide whether we absorb or move to another phase.
                probs = np.maximum(self.T[phase].copy(), 0.0)
                probs[phase] = 0.0
                absorb_prob = exit_rates[phase] / rate
                if rng.uniform() < absorb_prob:
                    break
                transition_probs = probs / probs.sum() if probs.sum() > 0 else None
                if transition_probs is None:
                    break
                phase = int(rng.choice(self.order, p=transition_probs))
            samples[i] = time
        return samples

    # ------------------------------------------------------------- operations
    def scaled(self, factor: float) -> "PhaseType":
        """Distribution of ``factor · X`` (rates divided by ``factor``)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PhaseType(self.alpha, self.T / factor)

    def convolve(self, other: "PhaseType") -> "PhaseType":
        """Distribution of the sum of two independent PH random variables."""
        n, m = self.order, other.order
        T = np.zeros((n + m, n + m))
        T[:n, :n] = self.T
        T[n:, n:] = other.T
        T[:n, n:] = np.outer(self.exit_rates, other.alpha)
        alpha = np.concatenate([self.alpha, np.zeros(m)])
        return PhaseType(alpha, T)

    @staticmethod
    def mixture(weights: Sequence[float], components: Sequence["PhaseType"]) -> "PhaseType":
        """Probabilistic mixture of PH distributions."""
        weights_arr = np.asarray(weights, dtype=float)
        if len(weights_arr) != len(components):
            raise ValueError("weights and components must have the same length")
        if np.any(weights_arr < 0) or not math.isclose(weights_arr.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("weights must be non-negative and sum to 1")
        total_order = sum(c.order for c in components)
        T = np.zeros((total_order, total_order))
        alpha = np.zeros(total_order)
        offset = 0
        for weight, comp in zip(weights_arr, components):
            T[offset : offset + comp.order, offset : offset + comp.order] = comp.T
            alpha[offset : offset + comp.order] = weight * comp.alpha
            offset += comp.order
        return PhaseType(alpha, T)

    def convolve_many(self, others: Sequence["PhaseType"]) -> "PhaseType":
        """Convolve with a sequence of further PH distributions."""
        result = self
        for other in others:
            result = result.convolve(other)
        return result

    # ------------------------------------------------------------- factories
    @staticmethod
    def exponential(rate: float) -> "PhaseType":
        """Exponential distribution with the given rate."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return PhaseType([1.0], [[-rate]])

    @staticmethod
    def erlang(k: int, rate: float) -> "PhaseType":
        """Erlang-k distribution, each phase with the given rate."""
        if k <= 0:
            raise ValueError("k must be positive")
        if rate <= 0:
            raise ValueError("rate must be positive")
        T = np.zeros((k, k))
        for i in range(k):
            T[i, i] = -rate
            if i + 1 < k:
                T[i, i + 1] = rate
        alpha = np.zeros(k)
        alpha[0] = 1.0
        return PhaseType(alpha, T)

    @staticmethod
    def hyperexponential(probabilities: Sequence[float], rates: Sequence[float]) -> "PhaseType":
        """Hyper-exponential mixture of exponentials."""
        probs = np.asarray(probabilities, dtype=float)
        rates_arr = np.asarray(rates, dtype=float)
        if probs.shape != rates_arr.shape:
            raise ValueError("probabilities and rates must have the same length")
        if np.any(rates_arr <= 0):
            raise ValueError("rates must be positive")
        if np.any(probs < 0) or not math.isclose(probs.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("probabilities must be non-negative and sum to 1")
        T = np.diag(-rates_arr)
        return PhaseType(probs, T)

    @staticmethod
    def deterministic_approx(value: float, phases: int = 50) -> "PhaseType":
        """Erlang approximation of a deterministic duration."""
        if value <= 0:
            raise ValueError("value must be positive")
        return PhaseType.erlang(phases, phases / value)

    @staticmethod
    def fit_mean_scv(mean: float, scv: float) -> "PhaseType":
        """Two-moment PH fit.

        * ``scv == 1`` → exponential;
        * ``scv < 1`` → mixture of Erlang-(k−1) and Erlang-k with a common rate
          (the standard two-moment matching of Tijms);
        * ``scv > 1`` → two-phase hyper-exponential with balanced means.
        """
        if mean <= 0:
            raise ValueError("mean must be positive")
        if scv < 0:
            raise ValueError("scv must be non-negative")
        if scv == 0:
            return PhaseType.deterministic_approx(mean)
        if math.isclose(scv, 1.0, rel_tol=1e-9):
            return PhaseType.exponential(1.0 / mean)
        if scv < 1.0:
            k = max(2, math.ceil(1.0 / scv))
            # Mixture of Erlang-(k-1) and Erlang-k with common rate.
            p = (
                k * scv
                - math.sqrt(k * (1.0 + scv) - k * k * scv)
            ) / (1.0 + scv) if k * scv <= 1 + scv else 0.0
            p = min(max(p, 0.0), 1.0)
            rate = (k - p) / mean
            erl_km1 = PhaseType.erlang(k - 1, rate)
            erl_k = PhaseType.erlang(k, rate)
            return PhaseType.mixture([p, 1.0 - p], [erl_km1, erl_k])
        # scv > 1: balanced-means H2.
        p1 = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        p2 = 1.0 - p1
        rate1 = 2.0 * p1 / mean
        rate2 = 2.0 * p2 / mean
        return PhaseType.hyperexponential([p1, p2], [rate1, rate2])

    # --------------------------------------------------------------- dunders
    def __repr__(self) -> str:
        return f"PhaseType(order={self.order}, mean={self.mean:.4g}, scv={self.scv:.4g})"
