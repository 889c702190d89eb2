"""Per-step rows of rollouts, for tests that read what a policy did.

user_steps reads one user's steps out of a run_episode result. traced_eval
runs evaluate_policy as the program does and also returns its episode's
steps as trace rows, which a wrapping policy records as they are observed.
"""

from cfrl.agent import Policy
from cfrl.evaluate import evaluate_policy


def user_steps(steps, row: int) -> list:
    """One row's (action, reward, done) steps of a run_episode result, as
    Python int, float and bool."""
    return [(int(actions[row]), float(rewards[row]), done) for actions, rewards, done in steps]


class _Recording(Policy):
    """`policy` unchanged, with the steps of its last episode kept in `steps`."""

    def __init__(self, policy):
        self.policy = policy
        self.steps = []

    def begin_episode(self, users) -> None:
        self.steps = []
        self.policy.begin_episode(users)

    def act(self, avail):
        return self.policy.act(avail)

    def observe(self, items, rewards, done: bool = False) -> None:
        self.steps.append((items, rewards, done))
        self.policy.observe(items, rewards, done)


def traced_eval(policy, ds, split, task, horizon: int) -> tuple:
    """(evaluate_policy's scores, its trace): one row (idx, user, t, action,
    reward, done) per step of each test user, user by user, where idx is the
    user's row in the block."""
    recording = _Recording(policy)
    scores = evaluate_policy(recording, ds, split, task, horizon)
    trace = []
    for idx, user in enumerate(sorted(split.test_users)):
        trace.extend((idx, user, t, *step)
                     for t, step in enumerate(user_steps(recording.steps, idx)))
    return scores, trace
