from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cveledger
from cveledger.cli import build_parser, main

from conftest import files_under

SRC = Path(cveledger.__file__).resolve().parent.parent


def run_cli(capsys, *argv) -> tuple[int, object, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out.splitlines()[-1]) if captured.out.strip() else None
    return code, out, captured.err


RECORD = {
    "cveID": "CVE-2025-0001",
    "description": "Stack smash in widget",
    "product": "widget",
    "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],
    "severity": {"label": "HIGH", "cvssScore": 7.5},
    "submitterCNA": "cna.redhat",
}


@pytest.fixture
def data_dir(tmp_path, capsys):
    d = tmp_path / "node"
    code, _, _ = run_cli(capsys, "--data-dir", str(d), "init", "--now", "1000")
    assert code == 0
    return d


def onboard_redhat(capsys, data_dir, tmp_path) -> None:
    certfile = tmp_path / "redhat.cert.json"
    code, _, _ = run_cli(
        capsys, "--data-dir", str(data_dir), "issue", "cna.redhat", "--out", str(certfile)
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "--data-dir", str(data_dir), "onboard", "cna.redhat", str(certfile))
    assert code == 0


def write_record(tmp_path, record=None) -> str:
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record or RECORD))
    return str(path)


class TestLifecycleCommands:
    def test_submit_tick_query_flow(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        rec = write_record(tmp_path)
        code, out, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "submit", rec, "--embargo", "1500"
        )
        assert code == 0 and out["status"] == "DRAFT"
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "tick", "--now", "1500")
        assert code == 0 and out["released"] == ["CVE-2025-0001"]
        code, out, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "query", "--id", "CVE-2025-0001"
        )
        assert code == 0 and out[0]["status"] == "PUBLISHED"
        assert out[0]["description"] == RECORD["description"]

    def test_one_tick_releases_two_drafts_in_id_order_and_the_next_none(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        for cve_id, embargo in (("CVE-2025-0002", "1400"), ("CVE-2025-0001", "1500")):
            rec = write_record(tmp_path, dict(RECORD, cveID=cve_id))
            code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "submit", rec, "--embargo", embargo)
            assert code == 0 and out["status"] == "DRAFT"
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "tick", "--now", "1500")
        assert code == 0 and out["released"] == ["CVE-2025-0001", "CVE-2025-0002"]
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "tick")
        assert code == 0 and out["released"] == [] and out["clockNow"] == 1501

    def test_submit_without_embargo_publishes(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        assert code == 0 and out["status"] == "PUBLISHED"

    def test_status_reject_dispute_commands(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        second = dict(RECORD, cveID="CVE-2025-0002")
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path, second))

        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "dispute", "CVE-2025-0001", "--reason", "contested", "--ref", "https://example.org"
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "reject", "CVE-2025-0002", "--reason", "duplicate"
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query", "--status", "DISPUTED")
        assert [v["cveID"] for v in out] == ["CVE-2025-0001"]
        assert out[0]["description"].startswith("DISPUTED: ")

        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "status", "CVE-2025-0001", "PUBLISHED", "--as", "cna.redhat"
        )
        assert code == 0

    def test_merge_split_partialdup_commands(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        for seq in (1, 2, 3):
            rec = dict(RECORD, cveID=f"CVE-2025-000{seq}")
            if seq == 3:
                rec["version"] = [{"lo": [1, 5, 0], "hi": [3, 0, 0]}]
            run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path, rec))

        meta = tmp_path / "meta.json"
        meta.write_text(
            json.dumps(
                [
                    {"cveID": "CVE-2025-0001", "referenceCount": 5, "authority": "VENDOR", "publicizedAt": 10},
                    {"cveID": "CVE-2025-0002", "referenceCount": 1, "authority": "RESEARCHER", "publicizedAt": 20},
                ]
            )
        )
        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "merge", "CVE-2025-0001", "CVE-2025-0002", "--meta", str(meta)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query", "--id", "CVE-2025-0002")
        assert out[0]["status"] == "REJECTED"

        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "partialdup", "CVE-2025-0001", "CVE-2025-0003"
        )
        assert code == 0

        candidates = tmp_path / "cands.json"
        candidates.write_text(
            json.dumps(
                [
                    {"descriptor": "part one", "associationFrequency": 9, "severity": {"label": "HIGH", "cvssScore": 7.5}, "versionBreadth": 2, "mentionOrder": 1},
                    {"descriptor": "part two", "associationFrequency": 1, "severity": {"label": "LOW", "cvssScore": 2.0}, "versionBreadth": 1, "mentionOrder": 2},
                ]
            )
        )
        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "split", "CVE-2025-0001", "--candidates", str(candidates)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query", "--year", "2025")
        assert len(out) == 4  # 3 submitted + 1 split-off

    def test_revoke_blocks_future_submissions(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        code, _, _ = run_cli(capsys, "--data-dir", str(data_dir), "revoke", "cna.redhat")
        assert code == 0
        code, _, err = run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        assert code == 1
        assert json.loads(err)["error"] == "UnauthorizedCaller"



class TestQueryFilters:
    @pytest.mark.parametrize("flag,value", [("--year", "0"), ("--product", ""), ("--submitter", "")])
    def test_falsy_filter_still_filters(self, tmp_path, data_dir, capsys, flag, value):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query")
        assert code == 0 and len(out) == 1
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query", flag, value)
        assert code == 0 and out == []

    def test_empty_id_is_malformed(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        code, out, err = run_cli(capsys, "--data-dir", str(data_dir), "query", "--id", "")
        assert code == 1 and out is None
        assert json.loads(err)["error"] == "MalformedId"


class TestExitCodes:
    def test_audit_pristine_exits_zero(self, data_dir, capsys):
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "audit")
        assert code == 0 and out["valid"] is True

    def test_audit_after_byte_flip_exits_one_hash_mismatch(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        ledger = data_dir / "ledger.jsonl"
        data = bytearray(ledger.read_bytes())
        data[data.index(b"Stack smash")] ^= 0x01  # inside a hashed payload
        ledger.write_bytes(bytes(data))
        code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "audit")
        assert code == 1
        assert out["valid"] is False and out["reason"] == "HASH_MISMATCH"

    def test_usage_error_exits_two_with_json_stderr(self, capsys):
        code = main(["definitely-not-a-command"])
        err = capsys.readouterr().err
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_domain_error_is_single_line_json(self, tmp_path, data_dir, capsys):
        code, _, err = run_cli(
            capsys, "--data-dir", str(data_dir), "status", "CVE-2025-0001", "ARCHIVED"
        )
        assert code == 1
        parsed = json.loads(err)
        assert parsed["error"] == "UnknownCveId"
        assert "\n" not in err.strip()

    def test_submit_missing_file(self, data_dir, capsys):
        code, _, err = run_cli(capsys, "--data-dir", str(data_dir), "submit", "nope.json")
        assert code == 1
        assert json.loads(err)["error"] == "LedgerError"

    def test_init_twice_fails(self, data_dir, capsys):
        code, _, err = run_cli(capsys, "--data-dir", str(data_dir), "init")
        assert code == 1

    def test_merge_meta_mismatch(self, tmp_path, data_dir, capsys):
        meta = tmp_path / "meta.json"
        meta.write_text(json.dumps([{"cveID": "CVE-2025-0009", "referenceCount": 1, "authority": "VENDOR", "publicizedAt": 1}]))
        code, _, err = run_cli(
            capsys, "--data-dir", str(data_dir), "merge", "CVE-2025-0001", "CVE-2025-0002", "--meta", str(meta)
        )
        assert code == 1


class TestDecideAndReplay:
    def test_decide_systems_path(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--store", "--writers", "--known", "--public"
        )
        assert code == 0
        assert out["verdict"] == "PUBLIC_PERMISSIONED"

    def test_decide_no_flags_means_no_blockchain(self, capsys):
        code, out, _ = run_cli(capsys, "decide")
        assert code == 0 and out["verdict"] == "NO_BLOCKCHAIN"

    def test_replay_matches_across_command_sequences(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        run_cli(capsys, "--data-dir", str(data_dir), "tick")
        code, first, _ = run_cli(capsys, "--data-dir", str(data_dir), "replay")
        code2, second, _ = run_cli(capsys, "--data-dir", str(data_dir), "replay")
        assert code == code2 == 0
        assert first == second

    def test_every_mutation_is_exactly_one_transaction(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)  # issue writes no tx; onboard writes one
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        run_cli(capsys, "--data-dir", str(data_dir), "tick")
        ledger = (data_dir / "ledger.jsonl").read_text().splitlines()
        blocks = [json.loads(line) for line in ledger]
        # genesis + onboard + submit + tick
        assert len(blocks) == 4
        assert all(len(b["txs"]) == 1 for b in blocks)

    def test_crash_tail_recovered_on_next_command(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        code, before, _ = run_cli(capsys, "--data-dir", str(data_dir), "replay")
        ledger = data_dir / "ledger.jsonl"
        ledger.write_bytes(ledger.read_bytes() + b'{"height": 99, "partial')
        code, after, _ = run_cli(capsys, "--data-dir", str(data_dir), "replay")
        assert code == 0 and after == before


class TestParserBuiltOnce:
    ARGVS = [
        ["--data-dir", "a", "query", "--product", "widget", "--year", "2025", "--status", "DRAFT"],
        ["query", "--id", "CVE-2025-0001"],
        ["status", "CVE-2025-0001", "ARCHIVED", "--as", "cna.redhat"],
        ["reject", "CVE-2025-0001", "--reason", "dup"],
        ["dispute", "CVE-2025-0001", "--reason", "no", "--ref", "x"],
        ["dispute", "CVE-2025-0001", "--reason", "no"],
        ["init", "--now", "5", "--peers", "4"],
        ["init"],
        ["decide", "--store", "--public"],
        ["decide"],
        ["query"],
    ]

    def test_every_parse_answers_as_a_fresh_parser_does(self):
        parser = build_parser()
        assert build_parser() is parser
        for argv in self.ARGVS + self.ARGVS[::-1]:
            assert vars(parser.parse_args(argv)) == vars(build_parser.__wrapped__().parse_args(argv)), argv

    def test_consecutive_commands_leak_no_filter(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        run_cli(capsys, "--data-dir", str(data_dir), "submit", write_record(tmp_path))
        queries = [
            (["--product", "widget", "--year", "2025"], ["CVE-2025-0001"]),
            (["--year", "2024"], []),
            ([], ["CVE-2025-0001"]),
            (["--submitter", "cna.other"], []),
            (["--status", "PUBLISHED"], ["CVE-2025-0001"]),
        ]
        for argv, expected in queries * 2:
            code, out, _ = run_cli(capsys, "--data-dir", str(data_dir), "query", *argv)
            assert code == 0 and [row["cveID"] for row in out] == expected, argv
            assert main(["query", "--year", "not-a-year"]) == 2
            capsys.readouterr()


class TestRefusals:
    """A refused write reports the refusal's code, and a schema refusal names
    each violated field and the reason."""

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"description": ""}, "description: description must be non-empty (EMPTY_DESCRIPTION)"),
            (
                {"severity": {"label": "LOW", "cvssScore": 9.5}},
                "severity: score 9.5 maps to CRITICAL, not LOW (SEVERITY_BAND_MISMATCH)",
            ),
        ],
        ids=["empty-description", "band-mismatch"],
    )
    def test_schema_violation(self, tmp_path, data_dir, capsys, change, reason):
        onboard_redhat(capsys, data_dir, tmp_path)
        ledger = (data_dir / "ledger.jsonl").read_bytes()
        record = write_record(tmp_path, dict(RECORD, **change))
        code, out, err = run_cli(capsys, "--data-dir", str(data_dir), "submit", record)
        assert code == 1 and out is None and len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "SchemaViolation", "message": reason}
        assert (data_dir / "ledger.jsonl").read_bytes() == ledger

    def test_revoked_certificate(self, tmp_path, data_dir, capsys):
        onboard_redhat(capsys, data_dir, tmp_path)
        assert run_cli(capsys, "--data-dir", str(data_dir), "revoke", "cna.redhat")[0] == 0
        code, out, err = run_cli(
            capsys, "--data-dir", str(data_dir), "onboard", "cna.redhat", str(tmp_path / "redhat.cert.json")
        )
        assert code == 1 and out is None
        assert json.loads(err) == {"error": "Revoked", "message": "certificate serial 2 revoked"}


SUBCOMMANDS = [
    "init", "issue", "onboard", "revoke", "submit", "status", "reject", "dispute", "merge",
    "split", "partialdup", "tick", "query", "audit", "replay", "decide", "bench", "serve",
]
# the subcommands that take a required argument
REQUIRED = [
    "issue", "onboard", "revoke", "submit", "status", "reject", "dispute", "merge", "split", "partialdup", "bench",
]


class TestUsageSurface:
    def test_the_parser_offers_these_subcommands_in_this_order(self, capsys):
        assert main(["--help"]) == 0
        [choices] = re.findall(r"\{([a-z,]+)\}", capsys.readouterr().out.split("\n\n")[0])
        assert choices.split(",") == SUBCOMMANDS

    def test_readme_names_every_subcommand(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme[readme.index("Subcommands:") :].split("\n\n")[0]
        assert sorted(re.findall(r"`([a-z]+)", paragraph)) == sorted(SUBCOMMANDS)

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help(self, capsys, name):
        assert main([name, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: cveledger {name} ") and captured.err == ""

    @pytest.mark.parametrize("name", REQUIRED)
    def test_a_missing_required_argument_is_one_usage_error(self, tmp_path, capsys, name):
        assert main(["--data-dir", str(tmp_path / "missing"), name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"] == "UsageError"
        assert not (tmp_path / "missing").exists()

    # every command that reads or writes a data dir, with its required arguments
    ON_DATA_DIR = {
        "issue": ["cna.x"],
        "onboard": ["cna.x", "x.cert.json"],
        "revoke": ["cna.x"],
        "submit": ["record.json"],
        "status": ["CVE-2025-0001", "ARCHIVED"],
        "reject": ["CVE-2025-0001", "--reason", "dup"],
        "dispute": ["CVE-2025-0001", "--reason", "dup"],
        "merge": ["CVE-2025-0001", "CVE-2025-0002", "--meta", "meta.json"],
        "split": ["CVE-2025-0001", "--candidates", "candidates.json"],
        "partialdup": ["CVE-2025-0001", "CVE-2025-0002"],
        "tick": [],
        "query": [],
        "audit": [],
        "replay": [],
        "serve": [],
    }

    def test_every_data_dir_command_names_the_data_dir_when_it_is_not_initialized(self, tmp_path, capsys):
        assert sorted(self.ON_DATA_DIR) == sorted(set(SUBCOMMANDS) - {"init", "decide", "bench"})
        missing = tmp_path / "missing"
        line = json.dumps({"error": "LedgerError", "message": f"not an initialized data dir: {missing}"})
        for name, argv in self.ON_DATA_DIR.items():
            assert main(["--data-dir", str(missing), name, *argv]) == 1, name
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", line + "\n"), name
        assert not missing.exists()

    @pytest.mark.parametrize("name", ["query", "replay", "tick", "status", "audit"])
    def test_a_data_dir_without_its_ledger_is_not_initialized(self, data_dir, capsys, name):
        (data_dir / "ledger.jsonl").rename(data_dir / "aside.jsonl")
        line = json.dumps({"error": "LedgerError", "message": f"not an initialized data dir: {data_dir}"})
        assert main(["--data-dir", str(data_dir), name, *self.ON_DATA_DIR[name]]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")
        assert not (data_dir / "ledger.jsonl").exists()


class TestOutOfRangeArguments:
    """Fewer than one peer and a port outside 0-65535 are refused with one
    JSON line on stderr, before anything is written."""

    @pytest.mark.parametrize(
        "argv", [["init", "--peers", "0"], ["init", "--peers", "-1"], ["bench", "--txs", "5", "--peers", "0"]]
    )
    def test_fewer_than_one_peer_is_refused_before_a_file_is_written(self, tmp_path, capsys, argv):
        d = tmp_path / "node"
        assert main(["--data-dir", str(d), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        message = f"argument --peers: invalid positive_int value: {argv[-1]!r}"
        assert json.loads(line) == {"error": "UsageError", "message": message}
        assert not d.exists()

    @pytest.mark.parametrize("command", ["init", "serve"])
    @pytest.mark.parametrize("port", ["70000", "65536", "-1", "http"])
    def test_a_port_outside_0_to_65535_is_a_usage_error(self, tmp_path, capsys, command, port):
        d = tmp_path / "node"
        assert main(["--data-dir", str(d), command, "--port", port]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        message = f"argument --port: invalid listen_port value: {port!r}"
        assert json.loads(line) == {"error": "UsageError", "message": message}
        assert not d.exists()

    def test_the_ends_of_the_range_are_ports(self, tmp_path, capsys):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
        d = tmp_path / "node"
        assert main(["--data-dir", str(d), "init", "--now", "1000", "--port", "65535"]) == 0
        assert json.loads((d / "config.json").read_text())["listenPort"] == 65535

    def test_a_config_port_outside_0_to_65535_is_a_malformed_config(self, data_dir, capsys):
        config_path = data_dir / "config.json"
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(config, listenPort=70000)))
        capsys.readouterr()
        assert main(["--data-dir", str(data_dir), "serve"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        error = json.loads(line)
        assert error["error"] == "LedgerError", error
        assert "config.json" in error["message"] and "70000" in error["message"], error

    @pytest.mark.parametrize("txs", ["0", "-3"])
    def test_fewer_than_one_transaction_is_a_usage_error(self, capsys, txs):
        assert main(["bench", "--txs", txs, "--peers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        message = f"argument --txs: invalid positive_int value: {txs!r}"
        assert json.loads(line) == {"error": "UsageError", "message": message}


class TestRecoveryWarnings:
    """A crash tail's warnings go to `logging`, never to the CLI's stderr.
    The commands run as subprocesses: in-process, pytest's capture handler
    on the root logger would swallow what Python's last-resort handler
    prints when no handler is set."""

    @staticmethod
    def cveledger(data_dir, *argv) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "cveledger.cli", "--data-dir", str(data_dir), *argv]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data + b'{"height":9,"prev',  # crash residue of a killed append
            lambda data: data[:-1],  # the final newline lost
        ],
        ids=["crash-residue", "lost-newline"],
    )
    def test_query_and_tick_on_a_crash_tail_print_nothing_on_stderr(self, data_dir, capsys, damage):
        assert main(["--data-dir", str(data_dir), "tick"]) == 0
        ledger = data_dir / "ledger.jsonl"
        ledger.write_bytes(damage(ledger.read_bytes()))
        for argv in (["query", "--id", "CVE-2025-0001"], ["tick"]):
            run = self.cveledger(data_dir, *argv)
            assert (run.returncode, run.stderr) == (0, ""), (argv, run.stderr)
            json.loads(run.stdout)
        assert ledger.read_bytes().endswith(b"\n")


class TestClockRange:
    def test_a_tick_past_2_64_is_refused_and_issue_still_works(self, tmp_path, data_dir, capsys):
        ledger = data_dir / "ledger.jsonl"
        before = ledger.read_bytes()
        capsys.readouterr()
        assert main(["--data-dir", str(data_dir), "tick", "--now", "18446744073709551616"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "ClockViolation",
            "message": "clock 18446744073709551616 is not an integer in [0, 2**64)",
        }
        assert ledger.read_bytes() == before
        certfile = tmp_path / "late.cert.json"
        code, _, _ = run_cli(
            capsys, "--data-dir", str(data_dir), "issue", "cna.late", "--role", "CNA", "--out", str(certfile)
        )
        assert code == 0 and json.loads(certfile.read_text())["subject"] == "cna.late"


class TestFailedIssue:
    """An `issue` that exits non-zero leaves `keys/`, `certs/` and the
    `--out` path as they were, so the participant's name stays free."""

    @staticmethod
    def issue(capsys, data_dir, out) -> tuple[int, object, str]:
        return run_cli(capsys, "--data-dir", str(data_dir), "issue", "cna.zz", "--out", str(out))

    def test_an_out_that_is_a_directory_leaves_the_data_dir_as_it_was(self, tmp_path, data_dir, capsys):
        before = files_under(data_dir)
        (tmp_path / "outdir").mkdir()
        code, out, err = self.issue(capsys, data_dir, tmp_path / "outdir")
        assert (code, out) == (1, None)
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "IsADirectoryError", line
        assert files_under(data_dir) == before
        assert files_under(tmp_path / "outdir") == {}

    def test_the_name_a_directory_out_refused_issues_afterwards(self, tmp_path, data_dir, capsys):
        (tmp_path / "outdir").mkdir()
        assert self.issue(capsys, data_dir, tmp_path / "outdir")[0] == 1
        code, out, err = self.issue(capsys, data_dir, tmp_path / "zz.json")
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "zz.json").read_text())["subject"] == out["subject"] == "cna.zz"

    def test_a_duplicate_subject_leaves_an_existing_out_file_as_it_was(self, tmp_path, data_dir, capsys):
        assert self.issue(capsys, data_dir, tmp_path / "a.json")[0] == 0
        kept = tmp_path / "b.json"
        kept.write_bytes(b"keep me\n")
        before = files_under(data_dir)
        code, _, err = self.issue(capsys, data_dir, kept)
        assert code == 1 and json.loads(err)["error"] == "DuplicateSubject", err
        assert kept.read_bytes() == b"keep me\n"
        assert files_under(data_dir) == before


class TestOutInsideTheDataDir:
    """An `issue --out` that resolves inside the data dir is refused before
    anything is issued: one JSON error line, every file under the dir
    byte-identical, and the name free for a later `issue`."""

    @pytest.mark.parametrize(
        "inside",
        [
            lambda d: d / "ledger.jsonl",
            lambda d: d / "ledger.jsonl.state",
            lambda d: d / "keys" / "cna.x.json",
            lambda d: d / "certs" / "cna.x.json",
            lambda d: d / "new.cert.json",
            lambda d: d,
            lambda d: d / ".." / d.name / "ledger.jsonl",
        ],
        ids=["ledger", "checkpoint", "key", "cert", "new-file", "the-dir", "dotdot"],
    )
    def test_an_out_inside_the_data_dir_is_refused_and_leaves_it_as_it_was(self, tmp_path, data_dir, capsys, inside):
        onboard_redhat(capsys, data_dir, tmp_path)
        before = files_under(data_dir)
        code, out, err = run_cli(capsys, "--data-dir", str(data_dir), "issue", "cna.x", "--out", str(inside(data_dir)))
        assert (code, out) == (1, None)
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "LedgerError" and "inside the data dir" in json.loads(line)["message"]
        assert files_under(data_dir) == before
        argv = ["--data-dir", str(data_dir), "issue", "cna.x", "--out", str(tmp_path / "x.json")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and out["subject"] == "cna.x"
        assert run_cli(capsys, "--data-dir", str(data_dir), "audit")[0] == 0

    def test_an_out_through_a_link_into_the_data_dir_is_refused(self, tmp_path, data_dir, capsys):
        (tmp_path / "link").symlink_to(data_dir, target_is_directory=True)
        before = files_under(data_dir)
        code, _, err = run_cli(
            capsys, "--data-dir", str(data_dir), "issue", "cna.x", "--out", str(tmp_path / "link" / "ledger.jsonl")
        )
        assert code == 1 and json.loads(err)["error"] == "LedgerError", err
        assert files_under(data_dir) == before

    def test_a_data_dir_named_by_a_relative_path_refuses_its_own_ledger(self, tmp_path, data_dir, capsys, monkeypatch):
        monkeypatch.chdir(data_dir.parent)
        before = files_under(data_dir)
        name = data_dir.name
        code, _, err = run_cli(capsys, "--data-dir", name, "issue", "cna.x", "--out", f"./{name}/ledger.jsonl")
        assert code == 1 and json.loads(err)["error"] == "LedgerError", err
        assert files_under(data_dir) == before
        code, _, _ = run_cli(capsys, "--data-dir", name, "issue", "cna.x", "--out", "x.json")
        assert code == 0 and (data_dir.parent / "x.json").exists()

    def test_the_default_out_is_refused_when_the_data_dir_is_the_working_dir(self, data_dir, capsys, monkeypatch):
        monkeypatch.chdir(data_dir)
        before = files_under(data_dir)
        code, _, err = run_cli(capsys, "--data-dir", ".", "issue", "cna.x")
        assert code == 1 and json.loads(err)["error"] == "LedgerError", err
        assert files_under(data_dir) == before


class TestOddSpellings:
    """An integer option is ASCII digits after an optional minus, as over
    HTTP: what else `int()` reads is a usage error, refused before any file
    is touched."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["tick", "--now", "+5"],
            ["tick", "--now", "١٠٠٥"],
            ["tick", "--now", " +1_006 "],
            ["init", "--peers", " 2"],
            ["init", "--now", "١٠٠٠", "--peers", "٢", "--port", "٨٤٤١"],
            ["serve", "--port", "8_0"],
            ["query", "--year", "٢٠٢٥"],
            ["submit", "record.json", "--embargo", "+1500"],
            ["bench", "--txs", "٥", "--peers", "1"],
        ],
    )
    def test_a_spelling_http_refuses_is_one_usage_error_and_touches_no_file(self, data_dir, capsys, argv):
        before = files_under(data_dir)
        code, out, err = run_cli(capsys, "--data-dir", str(data_dir), *argv)
        assert (code, out) == (2, None)
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "UsageError", line
        assert files_under(data_dir) == before
