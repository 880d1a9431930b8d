"""Metamorphic relations of a run: changes of a scenario whose effect on the
trace is known, so that a run is checked against another run rather than
against an oracle (Chen, Cheung & Yiu, HKUST tech. report HKUST-CS98-01,
1998; Segura et al., IEEE TSE 2016). ``verify_run`` must accept each
transformed trace against the transformed scenario, and reject the trace
it was transformed from.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from memfabric import run_scenario, verify_run
from memfabric.fabric import FabricConfig
from test_scenario import scenarios

# (stride, offset, spare): word w becomes stride * w + offset, in a fabric
# with ``spare`` more words after the last one. Each moves every word up.
EMBEDDINGS = [(1, 3, 0), (2, 0, 2), (3, 1, 1)]


def shifted(scenario, delta: int):
    """The scenario with every tick, its tick limit too, ``delta`` later."""
    return scenario._replace(
        plans=tuple(plan._replace(start=plan.start + delta) for plan in scenario.plans),
        probes=tuple(probe._replace(tick=probe.tick + delta) for probe in scenario.probes),
        overrides=tuple(d._replace(tick=d.tick + delta) for d in scenario.overrides),
        max_tick=scenario.max_tick + delta,
    )


def embedded(scenario, rename, spare: int):
    """The scenario in a larger fabric, word ``w`` renamed ``rename(w)``; the
    words no word is renamed to run for one tick and are never enabled."""
    cfg = scenario.config
    word_count = rename(cfg.word_count) + spare
    durations = dict.fromkeys(range(1, word_count + 1), 1)
    durations.update({rename(w): cfg.durations[w] for w in cfg.durations})
    config = FabricConfig(
        word_count, cfg.delay1, cfg.delay2, cfg.threshold, durations, cfg.filter_mode
    )
    return scenario._replace(
        config=config,
        plans=tuple(
            plan._replace(sequence=tuple(map(rename, plan.sequence))) for plan in scenario.plans
        ),
        probes=tuple(probe._replace(word=rename(probe.word)) for probe in scenario.probes),
        overrides=tuple(d._replace(i=rename(d.i), j=rename(d.j)) for d in scenario.overrides),
    )


def assert_verify_tells_them_apart(scenario, records, original) -> None:
    """``verify_run`` accepts ``records`` against ``scenario``, and rejects
    ``original`` unless the transformation left it unchanged (an empty run)."""
    assert verify_run(scenario, records) == []
    if original != records:
        assert verify_run(scenario, original) != []


@settings(max_examples=50)
@given(scenario=scenarios(), delta=st.sampled_from([1, 7, 1000]))
def test_shifting_every_tick_shifts_every_record(scenario, delta):
    result = run_scenario(scenario)
    later = shifted(scenario, delta)
    later_result = run_scenario(later)
    assert later_result.records == [rec._replace(t=rec.t + delta) for rec in result.records]
    assert later_result.outcome.quiescent == result.outcome.quiescent
    assert_verify_tells_them_apart(later, later_result.records, result.records)


@settings(max_examples=50)
@given(scenario=scenarios(), embedding=st.sampled_from(EMBEDDINGS))
def test_embedding_the_words_in_order_renames_the_trace(scenario, embedding):
    stride, offset, spare = embedding

    def rename(word: int) -> int:
        return stride * word + offset

    result = run_scenario(scenario)
    bigger = embedded(scenario, rename, spare)
    bigger_result = run_scenario(bigger)
    expected = [
        rec._replace(
            word=None if rec.word is None else rename(rec.word),
            pair=None if rec.pair is None else (rename(rec.pair[0]), rename(rec.pair[1])),
        )
        for rec in result.records
    ]
    assert bigger_result.records == expected
    assert bigger_result.outcome == result.outcome
    assert_verify_tells_them_apart(bigger, bigger_result.records, result.records)
