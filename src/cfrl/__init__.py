"""Interactive recommendation simulator and benchmark suite.

Episodes replay logged explicit ratings, a block of users in lockstep (one
user while an agent trains); the agent keeps a low-dimensional
collaborative-filtering state updated online and learns a Q-network over it,
compared against random, popularity, impact, online-MF, LinUCB and raw-state
DQN policies under a shared offline protocol.
"""
