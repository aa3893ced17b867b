"""The trace-hash gate: a fixed grid of harness runs against recorded traces.

Every record must match tests/goldens/traces.json at 1e-12 relative (NaN
equal to NaN), the tolerance `test_engine` uses; the test also prints how
many trace.csv files are byte-identical to the recorded ones.  Refresh the
goldens with `python tests/record_traces.py --reason "..."` only for a
declared change of behaviour.
"""

import record_traces
from pairgossip.regularizers import REG_KINDS

TOLERANCE = 1e-12


def test_grid_covers_every_loss_regularizer_policy_and_topology():
    runs = record_traces.grid().values()
    assert {r["loss"]["kind"] for r in runs} == {"auc_logistic", "metric_hinge"}
    assert {r["regularizer"]["kind"] for r in runs} == set(REG_KINDS)
    assert {r["algorithm"] for r in runs} == {"sync", "async", "centralized_det",
                                              "centralized_sto"}
    assert {r.get("gradient_mode") for r in runs} == {"gossip", "unbiased_baseline",
                                                      None}
    assert {r["topology"]["kind"] for r in runs if r["topology"]} == {
        "complete", "watts_strogatz", "cycle"}


def test_traces_match_the_recorded_goldens(tmp_path):
    want = record_traces.load_goldens()["runs"]
    got = record_traces.run_grid(tmp_path)
    moves, misshapen, identical = record_traces.compare(got, want)
    print(f"trace-hash gate: {identical}/{len(want)} trace.csv byte-identical")
    assert misshapen == []
    assert {c: m for c, m in moves.items() if m > TOLERANCE} == {}
