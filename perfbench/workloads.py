"""Workload definitions for the pipeline benchmark.

A workload fixes the synthetic data spec, the run config and the shape of a
run; the seed passed on the command line fills in ``SyntheticSpec.seed`` and
``RunConfig.seed``, so the program only ever sees generated inputs.

Rung S is the default ``dualrec synth`` spec; its two workloads are the ones
``BENCHMARK.json`` lists. Rung M is the ROADMAP baseline spec (4000 users,
6000 / 4500 items), for a by-hand reading against the ROADMAP table: it sets
up in about 70 s and grows by about 150 MB of cyclic tape garbage per
training step, so it cannot be repeated the 20-odd times that one benchmark
comparison needs within the comparison's time budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    spec: dict = field(default_factory=dict)  # SyntheticSpec fields except seed
    candidates: int = 400  # frozen eval candidates per test user (synth default)
    config: dict = field(default_factory=dict)  # RunConfig fields except seed, epochs
    # A run is rounds of setup, load, epoch preps, a training unit (a `fit`
    # call) every `unit_every` rounds, and eval: at least `rounds` of them, and
    # more until the units have trained for the run's --seconds. Short rounds
    # sample the short phases often, so a slow stretch of the machine shifts
    # few of their samples. unit_steps None: a unit is one whole epoch, so
    # epoch_s is measured; N: a unit is the first N steps of an epoch, so
    # epoch_s is estimated.
    unit_steps: int | None = None
    rounds: int = 3
    unit_every: int = 1
    preps: int = 1  # epoch preps per round; all but one from probe `fit` calls


RUNG_M = dict(
    num_users=4000, num_items_a=6000, num_items_b=4500, rate_a=0.01, rate_b=0.008
)

WORKLOADS = {
    "s-full": Workload(rounds=12, unit_every=4, preps=2),
    "s-base": Workload(config={"variant": "base"}, rounds=12, unit_every=3, preps=2),
    # The unit is short because resident memory grows with every step until
    # the cyclic garbage collector frees the step's tape (see README).
    "m-full": Workload(spec=RUNG_M, candidates=999, unit_steps=5, rounds=1),
}
