"""The orderer's cut rule (`OrdererConfig`): blocks hold at least one
transaction each, and each tick cuts every transaction it accepted into
blocks of its own time, so nothing is left pending and the scenario stats
read off the blocks."""

from __future__ import annotations

import json

import pytest

from cveledger.network import OrdererConfig, SimulatedNetwork, drive_scenario, run_scenario
from cveledger.node import CONFIG_FILE, LEDGER_FILE
from test_acceptance import mixed_workload_script
from test_input_files import data_dir, run_cli  # noqa: F401  (data_dir is a fixture)
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


@pytest.mark.parametrize("tick_seconds", [0, -1])
def test_a_tick_step_below_one_is_refused(tick_seconds):
    with pytest.raises(ValueError, match="tickSeconds"):
        OrdererConfig(tick_seconds=tick_seconds)


@pytest.mark.parametrize("tick_seconds", [0, -1])
def test_a_scenario_with_a_tick_step_below_one_is_refused(tick_seconds):
    onboard = {"atTick": 0, "action": "onboard", "args": {"cna": "cna.a"}}
    with pytest.raises(ValueError, match="tickSeconds"):
        drive_scenario({"tickSeconds": tick_seconds, "actions": [onboard]})


@pytest.mark.parametrize("tick_seconds", [0, -1])
def test_tick_refuses_a_config_with_a_tick_step_below_one_by_name(data_dir, capsys, tick_seconds):
    """Before the bound, two ticks in a row at a step of 0 wrote two blocks
    at one clock holding the same transaction id."""
    config = json.loads((data_dir / CONFIG_FILE).read_text())
    config["ordererConfig"]["tickSeconds"] = tick_seconds
    (data_dir / CONFIG_FILE).write_text(json.dumps(config))
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    for _ in range(2):
        code, err = run_cli(capsys, data_dir, "tick")
        assert code == 1 and err["error"] == "LedgerError" and CONFIG_FILE in err["message"], err
    assert (data_dir / LEDGER_FILE).read_bytes() == ledger
