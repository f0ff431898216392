"""Files the CLI reads are input like any other: a record or `--meta` file
of the wrong shape, and a data-dir file that is malformed, are refused
with one JSON error line on stderr and exit code 1, never a traceback."""

from __future__ import annotations

import json

import pytest

from cveledger.cli import main
from cveledger.errors import LedgerError
from cveledger.node import CONFIG_FILE, CRL_FILE, KEYS_DIR, Node


def run_cli(capsys, data_dir, *argv) -> tuple[int, dict]:
    """Exit code and the one error line of a command expected to fail."""
    capsys.readouterr()
    code = main(["--data-dir", str(data_dir), *argv])
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return code, json.loads(err[0])


@pytest.fixture
def data_dir(tmp_path):
    """An initialized data dir with `cna.redhat` issued and onboarded."""
    d = tmp_path / "node"
    with Node.init(d, genesis_time=1000, seed=b"input-files") as node:
        cert = node.issue("cna.redhat", "CNA")
        cert_file = tmp_path / "redhat.cert.json"
        cert_file.write_text(json.dumps(cert.to_dict()))
        node.onboard("cna.redhat", cert_file)
    return d


@pytest.mark.parametrize("content", ["[1]", "5", '"record"', "null"])
def test_submit_refuses_a_record_file_that_is_not_an_object(tmp_path, data_dir, capsys, content):
    record = tmp_path / "record.json"
    record.write_text(content)
    code, err = run_cli(capsys, data_dir, "submit", str(record))
    assert code == 1 and err["error"] == "LedgerError"
    assert str(record) in err["message"]


def test_submit_refuses_a_submitter_that_is_not_a_string(tmp_path, data_dir, capsys):
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"cveID": "CVE-2025-0001", "submitterCNA": ["cna.redhat"]}))
    code, err = run_cli(capsys, data_dir, "submit", str(record))
    assert code == 1 and err["error"] == "BadCertificate"


@pytest.mark.parametrize("content", ['{"a": 1}', "[1, 2]", '[{"cveID": [1]}]', '["CVE-2025-0001"]'])
def test_merge_refuses_a_meta_file_of_the_wrong_shape(tmp_path, data_dir, capsys, content):
    meta = tmp_path / "meta.json"
    meta.write_text(content)
    code, err = run_cli(capsys, data_dir, "merge", "CVE-2025-0001", "CVE-2025-0002", "--meta", str(meta))
    assert code == 1 and err["error"] == "LedgerError"
    assert str(meta) in err["message"]


BAD_FILES = [
    (CONFIG_FILE, "[]"),
    (CONFIG_FILE, '{"ordererConfig": []}'),
    (CONFIG_FILE, '{"caKeyPath": 5}'),
    (CONFIG_FILE, "{"),
    (CRL_FILE, "[]"),
    (CRL_FILE, '{"revokedSerials": 5}'),
    (f"{KEYS_DIR}/cna.redhat.json", '{"publicKey": "00"}'),
    (f"{KEYS_DIR}/cna.redhat.json", '{"seedHex": "zz"}'),
    (f"{KEYS_DIR}/cna.redhat.json", '{"seedHex": "00"}'),
    (f"{KEYS_DIR}/ca.json", "[]"),
    ("certs/cna.redhat.json", "[]"),
]


@pytest.mark.parametrize("name,content", BAD_FILES)
def test_a_malformed_data_dir_file_is_refused_by_name(data_dir, capsys, name, content):
    (data_dir / name).write_text(content)
    with pytest.raises(LedgerError, match=name.split("/")[-1]):
        Node.open(data_dir)
    code, err = run_cli(capsys, data_dir, "tick")
    assert code == 1 and name.split("/")[-1] in err["message"]
    if name == CONFIG_FILE:
        for argv in (["replay"], ["query"]):
            code, err = run_cli(capsys, data_dir, *argv)
            assert code == 1 and CONFIG_FILE in err["message"]
    else:  # the readers need only the config and the ledger
        capsys.readouterr()
        assert main(["--data-dir", str(data_dir), "replay"]) == 0


def test_the_lock_is_released_after_a_malformed_file(data_dir):
    (data_dir / CRL_FILE).write_text("[]")
    with pytest.raises(LedgerError):
        Node.open(data_dir)
    (data_dir / CRL_FILE).write_text('{"revokedSerials": [], "version": 0}')
    with Node.open(data_dir) as node:
        assert node.net.chain[-1].height == 1
