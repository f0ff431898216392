"""The orderer's cut rule (`OrdererConfig`): blocks hold at least one
transaction each, and each tick cuts every transaction it accepted into
blocks of its own time, so nothing is left pending and the scenario stats
read off the blocks."""

from __future__ import annotations

import pytest

from cveledger.network import OrdererConfig, SimulatedNetwork, drive_scenario, run_scenario
from test_acceptance import mixed_workload_script
from test_op_table import ALL_OPS_SCRIPT


@pytest.mark.parametrize("max_block_txs", [0, -1])
def test_a_block_size_below_one_is_refused(monkeypatch, max_block_txs):
    with pytest.raises(ValueError, match="maxBlockTxs"):
        OrdererConfig(max_block_txs=max_block_txs)

    def build_tx(*args):
        raise AssertionError("a transaction was built")

    monkeypatch.setattr(SimulatedNetwork, "build_tx", build_tx)
    onboard = {"atTick": 0, "action": "onboard", "args": {"cna": "cna.a"}}
    script = {"maxBlockTxs": max_block_txs, "actions": [onboard]}
    with pytest.raises(ValueError, match="maxBlockTxs"):
        run_scenario(script)


@pytest.mark.parametrize("script", [ALL_OPS_SCRIPT, mixed_workload_script(120)], ids=["all_ops", "mixed120"])
def test_every_accepted_transaction_commits_in_its_tick(script):
    net, actions, blocks = drive_scenario(script)
    times = {}
    for block in net.chain[1:]:
        for tx in block.txs:
            times.setdefault(tx.tx_id, set()).add(block.block_time)
    ok = [action for action in actions if action["ok"]]
    tick_seconds = script.get("tickSeconds", 1)
    for action in ok:
        assert script["genesisTime"] + action["atTick"] * tick_seconds in times[action["txId"]], action
    assert [block["blockTime"] for block in blocks] == [block.block_time for block in net.chain[1:]]
    assert net.pending == []
    stats = run_scenario(script)["stats"]
    assert stats["committedTxs"] == len(ok) and stats["pendingTxs"] == 0
