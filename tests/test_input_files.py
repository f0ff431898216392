"""Files the CLI reads are input like any other: a record or `--meta` file
of the wrong shape, and a data-dir file that is malformed, are refused
with one JSON error line on stderr and exit code 1, never a traceback."""

from __future__ import annotations

import json

import pytest

from cveledger.cli import main
from cveledger.errors import LedgerError
from cveledger.node import CONFIG_FILE, KEYS_DIR, LEDGER_FILE, Node


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


# What canonical JSON never writes: the non-finite literals a ledger line may
# not hold, and a lone surrogate, which decodes but cannot be encoded.
UNWRITABLE = ["NaN", "Infinity", "-Infinity", "1e400", "-1E+400", '"\\ud800"']

INPUT_FILES = {
    "submit": (
        lambda where: ["submit", str(where)],
        '{"cveID": "CVE-2025-0001", "description": "Stack smash in widget", "product": "widget",'
        ' "version": [{"lo": [1, 0, 0], "hi": [2, 0, 0]}],'
        ' "severity": {"label": "HIGH", "cvssScore": %s}, "submitterCNA": "cna.redhat"}',
    ),
    "merge --meta": (
        lambda where: ["merge", "CVE-2025-0001", "CVE-2025-0002", "--meta", str(where)],
        '[{"cveID": "CVE-2025-0001", "criteria": [%s]}, {"cveID": "CVE-2025-0002"}]',
    ),
    "split --candidates": (
        lambda where: ["split", "CVE-2025-0001", "--candidates", str(where)],
        '[{"description": "part one", "cvssScore": %s}, {"description": "part two"}]',
    ),
}


@pytest.mark.parametrize("literal", UNWRITABLE)
@pytest.mark.parametrize("command", sorted(INPUT_FILES))
def test_an_input_file_holding_what_the_encoder_never_writes_is_refused_by_name(
    tmp_path, data_dir, capsys, command, literal
):
    argv, content = INPUT_FILES[command]
    where = tmp_path / "input.json"
    where.write_text(content % literal)
    before = [(data_dir / name).read_bytes() for name in (LEDGER_FILE, f"{LEDGER_FILE}.state")]
    code, err = run_cli(capsys, data_dir, *argv(where))
    assert code == 1 and err["error"] == "LedgerError" and str(where) in err["message"], err
    assert [(data_dir / name).read_bytes() for name in (LEDGER_FILE, f"{LEDGER_FILE}.state")] == before


BAD_FILES = [
    (CONFIG_FILE, "[]"),
    (CONFIG_FILE, '{"ordererConfig": []}'),
    (CONFIG_FILE, '{"caKeyPath": 5}'),
    (CONFIG_FILE, '{"ordererConfig": {"maxBlockTxs": 0}}'),  # a block holds at least one transaction
    (CONFIG_FILE, '{"ordererConfig": {"maxBlockTxs": -1}}'),
    (CONFIG_FILE, "{"),
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
    ca_file = data_dir / KEYS_DIR / "ca.json"
    ca_key = ca_file.read_bytes()
    ca_file.write_text("[]")
    with pytest.raises(LedgerError):
        Node.open(data_dir)
    ca_file.write_bytes(ca_key)
    with Node.open(data_dir) as node:
        assert node.net.chain[-1].height == 1


@pytest.mark.parametrize("content", ["[]", '{"revokedSerials": 5}', "{"])
def test_a_crl_file_of_an_older_data_dir_is_never_read(data_dir, capsys, content):
    (data_dir / "crl.json").write_text(content)
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    capsys.readouterr()
    assert main(["--data-dir", str(data_dir), "revoke", "cna.redhat"]) == 0
    assert json.loads(capsys.readouterr().out)["crlVersion"] == 1
    assert (data_dir / LEDGER_FILE).read_bytes() != ledger


@pytest.mark.parametrize(
    "argv",
    [
        lambda where: ["submit", str(where)],
        lambda where: ["onboard", "cna.x", str(where)],
        lambda where: ["merge", "CVE-2025-0001", "CVE-2025-0002", "--meta", str(where)],
    ],
    ids=["submit", "onboard", "merge"],
)
def test_an_input_path_that_is_a_directory_is_refused_by_name(tmp_path, data_dir, capsys, argv):
    where = tmp_path / "not-a-file"
    where.mkdir()
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    code, err = run_cli(capsys, data_dir, *argv(where))
    assert code == 1 and err["error"] == "LedgerError" and str(where) in err["message"], err
    assert (data_dir / LEDGER_FILE).read_bytes() == ledger


def test_a_directory_among_the_key_files_is_refused_by_name(data_dir, capsys):
    (data_dir / KEYS_DIR / "evil.json").mkdir()
    ledger = (data_dir / LEDGER_FILE).read_bytes()
    with pytest.raises(LedgerError, match="evil.json"):
        Node.open(data_dir)
    for argv in (["tick"], ["revoke", "cna.redhat"]):
        code, err = run_cli(capsys, data_dir, *argv)
        assert code == 1 and err["error"] == "LedgerError" and "evil.json" in err["message"], err
    assert (data_dir / LEDGER_FILE).read_bytes() == ledger
