"""The chaos sim's give-up path: the production retry budget runs out.

A shard that stays down longer than the client's whole backoff schedule
makes the shipped retry loop give up.  The operation is abandoned unacked
(the oracle treats it as maybe-applied), the run still drains, and the
same seed reproduces the trace.
"""

from repro.sim import SimConfig, run_sim


def test_shard_down_past_retry_budget_gives_up_unacked():
    config = SimConfig(recovery_delay=400)
    result = run_sim(0, config)
    giveups = [line for line in result.trace if " giveup op" in line]
    assert giveups, "no operation outlived the retry budget"
    assert result.gave_up == len(giveups)
    assert f"gave_up={result.gave_up} " in result.summary()
    assert result.history_stats["unacked"] >= result.gave_up
    assert result.trace[-1].endswith(" drained")
    assert result.ok, "\n".join(str(v) for v in result.violations)
    assert run_sim(0, config).trace == result.trace
