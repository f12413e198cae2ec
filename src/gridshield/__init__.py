"""Desk-scale power-grid control workbench.

Modules:
    grid         static network model + DC power-flow kernel
    environment  discrete-time closed-loop dynamics
    shield       runtime safety layer (veto / projection / CBF mask)
    agent        size-invariant features, policy, grounding, the episode loop
    training     policy-gradient training (REINFORCE with baseline, Adam)
    grids        builtin synthetic grids (toy5 / train14 / large36)
    harness      episode summaries, evaluation suites, reports, file I/O
"""

__version__ = "0.1.0"
