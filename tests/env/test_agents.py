"""Unit tests for the decision agents: bandit math, serialisation, factory."""

import numpy as np
import pytest

from repro.env.agents import (
    AgentDecisionHook,
    BuiltinAgent,
    EpsilonGreedyAgent,
    LinUCBAgent,
    RandomAgent,
    SchedulerAgent,
    _design,
    load_agent,
    make_agent,
    save_agent,
)
from repro.simulation.decisions import ROUTE, STAGE, DecisionPoint

FEATURES = [[10.0, 1.0], [5.0, 2.0], [0.0, 4.0]]


def _point(num_candidates=3, kind=STAGE):
    return DecisionPoint(kind, 0.0, list(range(num_candidates)), None, None)


# ------------------------------------------------------------- design matrix
def test_design_normalises_columns_and_appends_bias():
    design = _design(FEATURES)
    expected = np.array([
        [1.0, 0.25, 1.0],
        [0.5, 0.5, 1.0],
        [0.0, 1.0, 1.0],
    ])
    assert np.allclose(design, expected)


def test_design_survives_an_all_zero_column():
    design = _design([[0.0, 3.0], [0.0, 6.0]])
    assert np.isfinite(design).all()
    assert np.allclose(design[:, 0], 0.0)


# ------------------------------------------------------------ epsilon-greedy
def test_epsilon_zero_picks_the_argmax_row():
    agent = EpsilonGreedyAgent(epsilon=0.0)
    agent.act(_point(), FEATURES)  # initialises the lazy weight vector
    agent.weights = np.array([1.0, 0.0, 0.0])
    assert agent.act(_point(), FEATURES) == 0
    agent.weights = np.array([0.0, 1.0, 0.0])
    assert agent.act(_point(), FEATURES) == 2


def test_epsilon_greedy_sgd_update_moves_weights_toward_reward():
    agent = EpsilonGreedyAgent(epsilon=0.0, learning_rate=0.5)
    agent.act(_point(), FEATURES)
    context = np.array([1.0, 0.0, 1.0])
    agent.observe(context, reward=1.0)
    # w starts at zero, so one step is lr * reward * context.
    assert np.allclose(agent.weights, 0.5 * context)


def test_frozen_epsilon_greedy_neither_explores_nor_learns():
    agent = EpsilonGreedyAgent(epsilon=1.0)  # would always explore
    agent.act(_point(), FEATURES)
    agent.freeze()
    before = agent.weights.copy()
    choices = {agent.act(_point(), FEATURES) for _ in range(20)}
    agent.observe(np.array([1.0, 1.0, 1.0]), reward=5.0)
    assert choices == {0}  # pure argmax of zero weights: lowest index
    assert np.array_equal(agent.weights, before)


def test_epsilon_greedy_rejects_bad_hyperparameters():
    with pytest.raises(ValueError, match="epsilon"):
        EpsilonGreedyAgent(epsilon=1.5)
    with pytest.raises(ValueError, match="learning_rate"):
        EpsilonGreedyAgent(learning_rate=0.0)


# -------------------------------------------------------------------- LinUCB
def test_linucb_breaks_prior_ties_toward_the_lowest_index():
    agent = LinUCBAgent(alpha=0.0)
    # Identical rows score identically; argmax must take the first.
    assert agent.act(_point(2), [[3.0, 3.0], [3.0, 3.0]]) == 0


def test_linucb_learns_to_prefer_the_rewarded_context():
    agent = LinUCBAgent(alpha=0.0)
    agent.act(_point(), FEATURES)
    design = _design(FEATURES)
    for _ in range(5):
        agent.observe(design[2], reward=1.0)
        agent.observe(design[0], reward=-1.0)
    assert agent.act(_point(), FEATURES) == 2


def test_frozen_linucb_drops_the_exploration_bonus():
    exploring = LinUCBAgent(alpha=10.0)
    frozen = LinUCBAgent(alpha=10.0)
    frozen.freeze()
    design = _design(FEATURES)
    # Push both toward row 0 on the mean term; the huge bonus can override
    # it for the exploring agent only.
    for agent in (exploring, frozen):
        agent._ensure(design.shape[1])
        agent.A += 100.0 * np.outer(design[0], design[0])
        agent.b += 100.0 * design[0] * 0.1
    assert frozen.act(_point(), FEATURES) == int(
        np.argmax(design @ (np.linalg.inv(frozen.A) @ frozen.b))
    )


def _rebuilt(agent, path):
    """A fresh LinUCB agent loaded from ``agent``'s current ``A`` and ``b``."""
    save_agent(agent, str(path))
    return load_agent(str(path))


def test_linucb_cached_solve_tracks_every_reward(tmp_path):
    rng = np.random.default_rng(11)
    feature_sets = [rng.uniform(0.0, 10.0, size=(n, 4)).tolist() for n in (3, 5, 2, 4)]
    agent = LinUCBAgent(alpha=0.5)
    choices = []
    for step in range(24):
        features = feature_sets[step % len(feature_sets)]
        fresh = _rebuilt(agent, tmp_path / "linucb.json")
        action = agent.act(_point(len(features)), features)
        assert action == fresh.act(_point(len(features)), features)
        assert np.array_equal(agent.last_context, fresh.last_context)
        choices.append(action)
        # Rewards arrive in batches: some decisions see none, some several.
        for _ in range(step % 3):
            reward = 1.0 if action == len(features) - 1 else -1.0
            agent.observe(agent.last_context, reward)
    assert len(set(choices)) > 1


def test_linucb_rejects_bad_hyperparameters():
    with pytest.raises(ValueError, match="alpha"):
        LinUCBAgent(alpha=-0.1)
    with pytest.raises(ValueError, match="l2"):
        LinUCBAgent(l2=0.0)


# ------------------------------------------------------------- random agent
def test_random_agent_is_deterministic_per_episode_seed():
    first = RandomAgent(seed=7)
    second = RandomAgent(seed=7)
    first.begin_episode(3)
    second.begin_episode(3)
    point = _point(5)
    assert [first.act(point) for _ in range(10)] == [
        second.act(point) for _ in range(10)
    ]


def test_random_agent_varies_across_episode_seeds():
    agent = RandomAgent(seed=7)
    point = _point(5)
    agent.begin_episode(1)
    run_a = [agent.act(point) for _ in range(10)]
    agent.begin_episode(2)
    run_b = [agent.act(point) for _ in range(10)]
    assert run_a != run_b


# ------------------------------------------------------------- serialisation
@pytest.mark.parametrize("spec", ["builtin", "random", "scheduler:fifo"])
def test_stateless_agents_round_trip(tmp_path, spec):
    path = tmp_path / "agent.json"
    agent = make_agent(spec)
    save_agent(agent, str(path))
    clone = load_agent(str(path))
    assert clone.name == agent.name
    assert clone.state() == agent.state()


def test_trained_epsilon_greedy_round_trips(tmp_path):
    agent = EpsilonGreedyAgent(epsilon=0.3, learning_rate=0.1, seed=5)
    agent.act(_point(), FEATURES)
    agent.observe(np.array([1.0, 0.5, 1.0]), reward=-2.0)
    path = tmp_path / "eg.json"
    save_agent(agent, str(path))
    clone = load_agent(str(path))
    assert clone.state() == agent.state()
    clone.freeze()
    agent.freeze()
    assert clone.act(_point(), FEATURES) == agent.act(_point(), FEATURES)


def test_trained_linucb_round_trips(tmp_path):
    agent = LinUCBAgent(alpha=0.5, l2=2.0, seed=1)
    agent.act(_point(), FEATURES)
    agent.observe(_design(FEATURES)[1], reward=1.5)
    path = tmp_path / "ucb.json"
    save_agent(agent, str(path))
    clone = load_agent(str(path))
    assert clone.state() == agent.state()
    assert clone.act(_point(), FEATURES) == agent.act(_point(), FEATURES)


def test_load_agent_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"agent": "mystery"}')
    with pytest.raises(ValueError, match="unknown agent kind"):
        load_agent(str(path))


# ------------------------------------------------------------------- factory
def test_make_agent_rejects_unknown_specs():
    with pytest.raises(ValueError, match="unknown agent"):
        make_agent("dqn")
    with pytest.raises(ValueError, match="unknown stage scheduler"):
        make_agent("scheduler:nope")


def test_make_agent_forwards_hyperparameters():
    agent = make_agent("epsilon_greedy", epsilon=0.5, learning_rate=0.2, seed=9)
    assert (agent.epsilon, agent.learning_rate, agent.seed) == (0.5, 0.2, 9)
    ucb = make_agent("linucb", alpha=2.0, seed=4)
    assert (ucb.alpha, ucb.seed) == (2.0, 4)


def test_scheduler_agent_refuses_routing_decisions():
    agent = SchedulerAgent("fifo")
    with pytest.raises(ValueError, match="stage decisions"):
        agent.act(_point(kind=ROUTE))


def test_hook_skips_feature_extraction_for_builtin_agents():
    # BuiltinAgent does not need features; the hook must not try to extract
    # them (context is None here, so extraction would raise).
    class Recorder(BuiltinAgent):
        def act(self, point, features=None):
            self.saw = features
            return 0

    agent = Recorder()
    hook = AgentDecisionHook(agent)
    assert hook(_point()) == 0
    assert agent.saw is None
