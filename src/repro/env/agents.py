"""Agents for the decision environments.

Two families:

* **Built-ins as agents** — :class:`BuiltinAgent` (delegate to the
  simulation's own scheduler/dispatcher), :class:`SchedulerAgent` (run a
  named stage scheduler), :class:`RandomAgent`.  These make the decision-hook
  refactor provably behaviour-preserving: routing every decision through
  them produces byte-identical results to the direct path under common
  random numbers (enforced by ``tests/properties/
  test_decision_hook_equivalence.py``).
* **Learned baselines** — :class:`EpsilonGreedyAgent` (linear value + SGD)
  and :class:`LinUCBAgent` (contextual UCB), both scoring each candidate's
  feature row with shared weights, so the variable-size action space needs
  no padding.  numpy-only; no heavy dependencies.

Feature rows are normalised per decision (each column divided by its
maximum absolute value across candidates, plus a bias column), which makes
the load-like columns scale-free relative comparisons — the right
representation for "which of these is least loaded" decisions.

Agents serialise to plain JSON (:func:`save_agent` / :func:`load_agent`)
so ``repro learn --save`` policies replay through ``repro policy``.
"""

import json
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.dag.schedulers import STAGE_SCHEDULERS, make_stage_scheduler
from repro.env.features import features_for
from repro.simulation.decisions import STAGE, DecisionPoint

__all__ = [
    "AGENTS",
    "Agent",
    "AgentDecisionHook",
    "BuiltinAgent",
    "EpsilonGreedyAgent",
    "LinUCBAgent",
    "RandomAgent",
    "SchedulerAgent",
    "load_agent",
    "make_agent",
    "save_agent",
]

#: Agent specs understood by :func:`make_agent` (and ``repro policy``).
AGENTS = ("builtin", "random", "epsilon_greedy", "linucb")


class Agent:
    """Base decision agent.

    ``act`` receives the :class:`~repro.simulation.decisions.DecisionPoint`
    and, when ``needs_features`` is set, the raw feature matrix (one row per
    candidate) — and returns the chosen candidate index.  Trainable agents
    additionally expose ``observe(context, reward)`` for delayed rewards;
    ``context`` is the agent's own normalised representation of the chosen
    candidate, captured from :attr:`last_context` right after ``act``.
    """

    name = "agent"
    needs_features = False
    trainable = False

    def __init__(self) -> None:
        #: Normalised design row of the last chosen candidate (trainable
        #: agents only) — the envs pair it with the delayed reward.
        self.last_context: Optional[np.ndarray] = None

    def begin_episode(self, seed: int) -> None:
        """Reset per-episode state (exploration streams) deterministically."""

    def act(self, point: DecisionPoint, features: Optional[Sequence[Sequence[float]]] = None) -> int:
        raise NotImplementedError

    def observe(self, context: np.ndarray, reward: float) -> None:
        """Consume the delayed reward for a past decision (no-op by default)."""

    def freeze(self) -> None:
        """Disable exploration and learning (evaluation mode)."""

    def state(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot; see :func:`save_agent`."""
        return {"agent": self.name}


def _identity_index(candidates: Sequence[Any], chosen: Any) -> int:
    for index, candidate in enumerate(candidates):
        if candidate is chosen:
            return index
    raise ValueError("scheduler returned an object outside the candidate set")


class BuiltinAgent(Agent):
    """Delegate every decision to the simulation's own scheduler/dispatcher.

    Stage decisions consult ``point.context.scheduler`` (the execution's
    configured stage scheduler) and routing decisions consult
    ``point.context.dispatcher`` — the *same instances*, drawing from the
    same random streams, as the direct path, which is what makes the hook
    path byte-identical to it.
    """

    name = "builtin"

    def act(self, point: DecisionPoint, features=None) -> int:
        if point.kind == STAGE:
            chosen = point.context.scheduler.select(point.candidates)
            return _identity_index(point.candidates, chosen)
        return point.context.dispatcher.select(point.job, point.candidates)


class SchedulerAgent(Agent):
    """Run a named built-in stage scheduler as an agent (stage decisions only).

    Stage schedulers are deterministic, so running e.g.
    ``SchedulerAgent("critical_path_first")`` through the hook on a
    fifo-configured simulation reproduces the direct
    ``scheduler="critical_path_first"`` run exactly.
    """

    def __init__(self, scheduler: str) -> None:
        super().__init__()
        self.scheduler = make_stage_scheduler(scheduler)
        self.name = f"scheduler:{self.scheduler.name}"

    def act(self, point: DecisionPoint, features=None) -> int:
        if point.kind != STAGE:
            raise ValueError(f"{self.name} only handles stage decisions")
        chosen = self.scheduler.select(point.candidates)
        return _identity_index(point.candidates, chosen)

    def state(self) -> Dict[str, Any]:
        return {"agent": "scheduler", "scheduler": self.scheduler.name}


class RandomAgent(Agent):
    """Uniform random choice from a per-episode seeded stream."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = int(seed)
        self._rng = np.random.default_rng((0xDEC1, self.seed, 0))

    def begin_episode(self, seed: int) -> None:
        self._rng = np.random.default_rng((0xDEC1, self.seed, int(seed)))

    def act(self, point: DecisionPoint, features=None) -> int:
        return int(self._rng.integers(point.num_actions))

    def state(self) -> Dict[str, Any]:
        return {"agent": "random", "seed": self.seed}


def _design(features: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-decision normalised design matrix with a trailing bias column."""
    matrix = np.asarray(features, dtype=float)
    denom = np.abs(matrix).max(axis=0)
    denom[denom == 0.0] = 1.0
    rows, dim = matrix.shape
    design = np.empty((rows, dim + 1))
    np.divide(matrix, denom, out=design[:, :dim])
    design[:, dim] = 1.0
    return design


class EpsilonGreedyAgent(Agent):
    """Epsilon-greedy contextual bandit with a shared linear value model.

    Scores each candidate's normalised feature row with one weight vector;
    exploration picks a uniform candidate with probability ``epsilon``.  The
    delayed reward updates the chosen row by one SGD step on the squared
    value error.  Freezing zeroes exploration and stops updates, making
    evaluation rollouts fully deterministic.
    """

    name = "epsilon_greedy"
    needs_features = True
    trainable = True

    def __init__(
        self,
        epsilon: float = 0.2,
        learning_rate: float = 0.05,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon!r}")
        if learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate!r}")
        self.epsilon = float(epsilon)
        self.learning_rate = float(learning_rate)
        self.seed = int(seed)
        self.frozen = False
        self.weights: Optional[np.ndarray] = None
        self._rng = np.random.default_rng((0xE95, self.seed, 0))

    def begin_episode(self, seed: int) -> None:
        self._rng = np.random.default_rng((0xE95, self.seed, int(seed)))

    def freeze(self) -> None:
        self.frozen = True

    def act(self, point: DecisionPoint, features=None) -> int:
        design = _design(features)
        if self.weights is None:
            self.weights = np.zeros(design.shape[1])
        if not self.frozen and self._rng.random() < self.epsilon:
            action = int(self._rng.integers(design.shape[0]))
        else:
            action = int(np.argmax(design @ self.weights))
        self.last_context = design[action]
        return action

    def observe(self, context: np.ndarray, reward: float) -> None:
        if self.frozen or self.weights is None:
            return
        error = reward - float(self.weights @ context)
        self.weights += self.learning_rate * error * context

    def state(self) -> Dict[str, Any]:
        return {
            "agent": "epsilon_greedy",
            "epsilon": self.epsilon,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "weights": None if self.weights is None else self.weights.tolist(),
        }


class LinUCBAgent(Agent):
    """LinUCB contextual bandit with shared ridge-regression weights.

    Maintains ``A = l2·I + Σ x xᵀ`` and ``b = Σ r·x`` over chosen rows;
    scores each candidate ``x`` as ``θᵀx + alpha·sqrt(xᵀ A⁻¹ x)`` with
    ``θ = A⁻¹ b``.  Fully deterministic (ties resolve to the lowest index);
    freezing drops the exploration bonus and stops updates.

    ``A⁻¹`` and ``θ`` change only when a reward arrives, so they are solved
    once and cached until the next :meth:`observe` rather than at every
    decision.  The cache assumes ``A`` and ``b`` change only there (or
    before the first :meth:`act`, as :func:`load_agent` sets them).
    """

    name = "linucb"
    needs_features = True
    trainable = True

    def __init__(self, alpha: float = 1.0, l2: float = 1.0, seed: int = 0) -> None:
        super().__init__()
        if alpha < 0.0:
            raise ValueError(f"alpha must be non-negative, got {alpha!r}")
        if l2 <= 0.0:
            raise ValueError(f"l2 must be positive, got {l2!r}")
        self.alpha = float(alpha)
        self.l2 = float(l2)
        self.seed = int(seed)
        self.frozen = False
        self.A: Optional[np.ndarray] = None
        self.b: Optional[np.ndarray] = None
        #: ``(A⁻¹, θ)`` for the current ``A``/``b``; ``None`` until solved.
        self._solution: Optional[tuple] = None

    def freeze(self) -> None:
        self.frozen = True

    def _ensure(self, dim: int) -> None:
        if self.A is None:
            self.A = self.l2 * np.eye(dim)
            self.b = np.zeros(dim)

    def act(self, point: DecisionPoint, features=None) -> int:
        design = _design(features)
        self._ensure(design.shape[1])
        if self._solution is None:
            inverse = np.linalg.inv(self.A)
            self._solution = (inverse, inverse @ self.b)
        inverse, theta = self._solution
        scores = design @ theta
        if not self.frozen and self.alpha > 0.0:
            widths = np.sqrt(np.einsum("ij,jk,ik->i", design, inverse, design))
            scores = scores + self.alpha * widths
        action = int(np.argmax(scores))
        self.last_context = design[action]
        return action

    def observe(self, context: np.ndarray, reward: float) -> None:
        if self.frozen or self.A is None:
            return
        self.A += np.outer(context, context)
        self.b += reward * context
        self._solution = None

    def state(self) -> Dict[str, Any]:
        return {
            "agent": "linucb",
            "alpha": self.alpha,
            "l2": self.l2,
            "seed": self.seed,
            "A": None if self.A is None else self.A.tolist(),
            "b": None if self.b is None else self.b.tolist(),
        }


class AgentDecisionHook:
    """Adapt an :class:`Agent` to the decision-hook callable protocol.

    Extracts features lazily (only for agents that want them), so built-in
    agents run through the hook with no observation cost.  Picklable
    whenever the agent is, which is what lets ``replicate_fleet`` /
    ``replicate_dag`` fan hook-driven replications across processes.
    """

    def __init__(self, agent: Agent) -> None:
        self.agent = agent

    def __call__(self, point: DecisionPoint) -> int:
        features = features_for(point) if self.agent.needs_features else None
        return self.agent.act(point, features)


# --------------------------------------------------------------- factories
def make_agent(spec: str, **kwargs: Any) -> Agent:
    """Build an agent from a CLI spec.

    ``builtin`` / ``random`` / ``epsilon_greedy`` / ``linucb``, or
    ``scheduler:<name>`` for any built-in stage scheduler (e.g.
    ``scheduler:critical_path_first``).  Keyword arguments are forwarded to
    the agent constructor (unknown ones are ignored per agent).
    """
    if spec.startswith("scheduler:"):
        return SchedulerAgent(spec.split(":", 1)[1])
    if spec == "builtin":
        return BuiltinAgent()
    if spec == "random":
        return RandomAgent(seed=int(kwargs.get("seed", 0)))
    if spec == "epsilon_greedy":
        return EpsilonGreedyAgent(
            epsilon=float(kwargs.get("epsilon", 0.2)),
            learning_rate=float(kwargs.get("learning_rate", 0.05)),
            seed=int(kwargs.get("seed", 0)),
        )
    if spec == "linucb":
        return LinUCBAgent(
            alpha=float(kwargs.get("alpha", 1.0)),
            l2=float(kwargs.get("l2", 1.0)),
            seed=int(kwargs.get("seed", 0)),
        )
    choices = ", ".join(AGENTS) + ", scheduler:<" + "|".join(STAGE_SCHEDULERS) + ">"
    raise ValueError(f"unknown agent {spec!r}; expected one of: {choices}")


def save_agent(agent: Agent, path: str) -> None:
    """Write an agent's JSON snapshot (see :func:`load_agent`)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(agent.state(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_agent(path: str) -> Agent:
    """Rebuild an agent from a :func:`save_agent` snapshot."""
    with open(path, "r", encoding="utf-8") as handle:
        state = json.load(handle)
    kind = state.get("agent")
    if kind == "scheduler":
        return SchedulerAgent(state["scheduler"])
    if kind == "builtin":
        return BuiltinAgent()
    if kind == "random":
        return RandomAgent(seed=int(state.get("seed", 0)))
    if kind == "epsilon_greedy":
        agent = EpsilonGreedyAgent(
            epsilon=float(state.get("epsilon", 0.2)),
            learning_rate=float(state.get("learning_rate", 0.05)),
            seed=int(state.get("seed", 0)),
        )
        if state.get("weights") is not None:
            agent.weights = np.asarray(state["weights"], dtype=float)
        return agent
    if kind == "linucb":
        agent = LinUCBAgent(
            alpha=float(state.get("alpha", 1.0)),
            l2=float(state.get("l2", 1.0)),
            seed=int(state.get("seed", 0)),
        )
        if state.get("A") is not None:
            agent.A = np.asarray(state["A"], dtype=float)
            agent.b = np.asarray(state["b"], dtype=float)
        return agent
    raise ValueError(f"{path}: unknown agent kind {kind!r}")
