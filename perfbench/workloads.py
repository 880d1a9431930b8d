"""Seeded scenario generators for the three benchmark workloads.

Each generator returns scenario text in canonical form. The seed picks
which word ids play which role and the order in which plans and probes
are visited; the shape of a workload (fabric size, plan count and
length, timing, overlap, probe count) is fixed. Different seeds are
therefore different inputs to the simulator whose host cost is
comparable, so figures from a held-out seed can be set beside figures
from the default seed.
"""

from __future__ import annotations

import random

DELAY1 = 5
DELAY2 = 1
DURATION = 4
GAP = 2
REST = 20
CLUSTERS = 4


def _lines(words, threshold, plans, overrides, probes, max_tick):
    out = [
        f"fabric words={words} delay1={DELAY1} delay2={DELAY2} "
        f"threshold={threshold} mode=done_enable",
        f"dur * {DURATION}",
    ]
    for seq, reps, start in plans:
        out.append(
            f"rehearse {' '.join(map(str, seq))} reps={reps} gap={GAP} rest={REST} start={start}"
        )
    for tick, i, j, is_open in overrides:
        out.append(f"at {tick} override {i} {j} {'open' if is_open else 'closed'}")
    for tick, word in probes:
        out.append(f"at {tick} probe {word}")
    out.append(f"maxticks {max_tick}")
    return "\n".join(out) + "\n"


def _chains(rng, words, count, length):
    picked = rng.sample(range(1, words + 1), count * length)
    return [tuple(picked[k * length:(k + 1) * length]) for k in range(count)]


def _toggle_unlearned(rng, words, used, tick):
    """Open then close one override on a pair no plan rehearses.

    Every workload dispatches all four event kinds this way, so each
    per-kind timing is measured on each of them.
    """
    spare = sorted(set(range(1, words + 1)) - used)
    i, j = rng.sample(spare, 2)
    return [(tick, i, j, True), (tick + 1, i, j, False)]


def sparse_learn(seed: int) -> str:
    """K = 300; 20 disjoint 5-word plans, one after another, then one probe each."""
    rng = random.Random(seed)
    words, count, length, reps, threshold, spacing = 300, 20, 5, 10, 8, 600
    chains = _chains(rng, words, count, length)
    plans = [(seq, reps, k * spacing) for k, seq in enumerate(chains)]
    probe_start = count * spacing
    order = rng.sample(range(count), count)
    probes = [(probe_start + 100 * n, chains[c][0]) for n, c in enumerate(order)]
    end = probes[-1][0] + 100
    used = {w for seq in chains for w in seq}
    overrides = _toggle_unlearned(rng, words, used, end)
    return _lines(words, threshold, plans, overrides, probes, end + 1000)


def dense_crosstalk(seed: int) -> str:
    """K = 100; 10 five-word plans whose repetitions interleave, then clustered probes."""
    rng = random.Random(seed)
    words, count, length, reps, threshold, stagger = 100, 10, 5, 10, 4, 3
    # Plans overlap here, so same-tick events are common and dispatch
    # order among them follows word ids. Ids are therefore assigned in
    # increasing order: every seed then runs the same simulation up to
    # renaming, with the same amount of work.
    picked = sorted(rng.sample(range(1, words + 1), count * length))
    chains = [tuple(picked[k * length:(k + 1) * length]) for k in range(count)]
    plans = [(seq, reps, k * stagger) for k, seq in enumerate(chains)]
    probes = []
    for cluster in range(CLUSTERS):
        tick = 1000 + 400 * cluster
        for n, c in enumerate(range(cluster, count, CLUSTERS)):
            probes.append((tick + n, chains[c][0]))
    end = probes[-1][0] + 400
    overrides = _toggle_unlearned(rng, words, set(picked), end)
    return _lines(words, threshold, plans, overrides, probes, end + 1000)


def replay_override(seed: int) -> str:
    """K = 200; 20 learned 8-word chains, then 1000 probes each after one override toggle."""
    rng = random.Random(seed)
    words, count, length, threshold, spacing = 200, 20, 8, 5, 600
    probe_count, probe_spacing = 1000, 100
    chains = _chains(rng, words, count, length)
    plans = [(seq, threshold, k * spacing) for k, seq in enumerate(chains)]
    probe_start = count * spacing
    order = rng.sample(range(count), count)
    is_open: dict[tuple[int, int], bool] = {}
    overrides, probes = [], []
    for n in range(probe_count):
        seq = chains[order[n % count]]
        # Positions cycle in a fixed order, so how far each replay runs
        # does not depend on the seed.
        k = (n // count) % (length - 1)
        pair = (seq[k], seq[k + 1])
        is_open[pair] = not is_open.get(pair, False)
        tick = probe_start + probe_spacing * n
        overrides.append((tick - 10, pair[0], pair[1], is_open[pair]))
        probes.append((tick, seq[0]))
    return _lines(words, threshold, plans, overrides, probes, probes[-1][0] + 1000)


# name -> (generator, default seed); why each workload is in the
# benchmark is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "sparse_learn": (sparse_learn, 1),
    "dense_crosstalk": (dense_crosstalk, 2),
    "replay_override": (replay_override, 3),
}


def generate(name: str, seed: int) -> str:
    return WORKLOADS[name][0](seed)
