"""Revocation is read off the chain. `WorldState.revoked` is checked against
a reference revocation list kept here: it starts empty and, at each
committed `RevokeCNA`, gains the serial of the certificate the CNA was
onboarded with. Over sequences of issue, onboard of the current or an older
certificate, revoke, tick and reopen, every issued certificate's verdict,
the duplicate-subject rule, the refusal codes and `revoke`'s `crlVersion`
agree with that list, through a network rebuilt by `from_materials` and
through a data dir reopened by `Node.open`."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cveledger.errors import LedgerError
from cveledger.identity import ROLE_CNA, CertificateAuthority, derive_keypair
from cveledger.network import SimulatedNetwork
from cveledger.node import Node

SEED = b"revocation-on-chain"
CNAS = ("cna.a", "cna.b")

# a step is (op, cna, back): `back` is how far an onboarding reaches behind
# the CNA's current certificate (0), and the other ops ignore it; a cycle
# issues, onboards and revokes one CNA, so CNAs are often onboarded again
OPS = ("issue", "onboard", "onboard", "revoke", "tick", "tick", "reopen")
step = st.tuples(st.sampled_from(OPS), st.sampled_from(CNAS), st.integers(0, 2)).map(lambda s: [s])
cycle = st.sampled_from(CNAS).map(
    lambda cna: [("issue", cna, 0), ("onboard", cna, 0), ("tick", cna, 0), ("revoke", cna, 0), ("tick", cna, 0)]
)
scripts = st.lists(st.one_of(step, cycle), max_size=12).map(lambda parts: [s for part in parts for s in part])


class ReferenceCrl:
    """What the chain has committed, as the old revocation list kept it."""

    def __init__(self):
        self.issued = {cna: [] for cna in CNAS}  # every certificate, oldest first
        self.onboarded = {}  # cna -> the certificate its last committed onboarding carried
        self.authorized = set()
        self.serials = set()  # the revoked serials
        self.pending = []  # (op, cna, certificate) endorsed and not yet committed

    def may_issue(self, cna) -> bool:
        return not self.issued[cna] or self.issued[cna][-1].serial in self.serials

    def pick(self, cna, back):
        certs = self.issued[cna]
        return certs[max(len(certs) - 1 - back, 0)] if certs else None

    def onboard_refusal(self, cna, cert):
        if cna in self.authorized:
            return "AlreadyAuthorized"
        return "Revoked" if cert.serial in self.serials else None

    def revoke_refusal(self, cna):
        return None if cna in self.authorized else "NotAuthorizedCna"

    def commit(self):
        """Apply the pending transactions in order, with the chaincode's guards."""
        for op, cna, cert in self.pending:
            if op == "onboard" and cna not in self.authorized:
                self.authorized.add(cna)
                self.onboarded[cna] = cert
            elif op == "revoke" and cna in self.authorized:
                self.authorized.remove(cna)
                self.serials.add(self.onboarded[cna].serial)
        self.pending = []

    def check(self, state):
        for certs in self.issued.values():
            for cert in certs:
                assert state.revoked(cert) == (cert.serial in self.serials), cert
        assert sum(e.kind == "CNARevoked" for e in state.event_log) == len(self.serials)


def _refusal(result):
    return None if result.accepted else result.refusals[0].code


def run_network(script):
    """Transactions wait for a tick; a reopen rebuilds the network from its
    chain and materials, and drops what was pending."""
    model = ReferenceCrl()
    net = SimulatedNetwork(seed=SEED, genesis_time=1000)
    gov = net.governance_id
    for n, (op, cna, back) in enumerate(script):
        if op == "issue":
            allowed = model.may_issue(cna)
            try:
                model.issued[cna].append(net.issue(cna, ROLE_CNA, derive_keypair(SEED, f"{cna}/{n}")))
            except LedgerError as exc:
                assert exc.code == "DuplicateSubject" and not allowed
            else:
                assert allowed
        elif op == "onboard":
            cert = model.pick(cna, back)
            if cert is not None:
                expected = model.onboard_refusal(cna, cert)
                assert _refusal(net.onboard(cna, cert, gov)) == expected
                if expected is None:
                    model.pending.append(("onboard", cna, cert))
        elif op == "revoke":
            expected = model.revoke_refusal(cna)
            assert _refusal(net.revoke(cna, gov)) == expected
            if expected is None:
                model.pending.append(("revoke", cna, None))
        elif op == "tick":
            net.tick()
            model.commit()
        else:
            peer_keys = {peer.peer_id: peer.key for peer in net.peers}
            net = SimulatedNetwork.from_materials(
                ca=CertificateAuthority(net.ca.key, next_serial=net.ca.next_serial),
                keys={**net.keys, **peer_keys},
                certs=net.certs,
                chain=net.chain,
                orderer=net.orderer,
            )
            model.pending = []
        model.check(net.peers[0].state)
        assert net.consistent()


def run_node(script, data_dir: Path):
    """Each mutation commits at once; a reopen is `Node.open` of the data dir."""
    model = ReferenceCrl()
    node = Node.init(data_dir / "d", genesis_time=1000, seed=SEED)
    try:
        for n, (op, cna, back) in enumerate(script):
            try:
                if op == "issue":
                    expected = None if model.may_issue(cna) else "DuplicateSubject"
                    model.issued[cna].append(node.issue(cna, ROLE_CNA))
                    assert expected is None
                elif op == "onboard":
                    cert = model.pick(cna, back)
                    if cert is not None:
                        expected = model.onboard_refusal(cna, cert)
                        cert_file = data_dir / f"{n}.cert.json"
                        cert_file.write_text(json.dumps(cert.to_dict()))
                        node.onboard(cna, cert_file)
                        assert expected is None
                        model.pending.append(("onboard", cna, cert))
                elif op == "revoke":
                    expected = model.revoke_refusal(cna)
                    out = node.revoke(cna)
                    assert expected is None
                    model.pending.append(("revoke", cna, None))
                    model.commit()
                    assert out["crlVersion"] == len(model.serials)
                elif op == "tick":
                    node.tick()
                else:
                    node.close()
                    node = Node.open(data_dir / "d")
            except LedgerError as exc:
                assert exc.code == expected, (op, cna, back, exc)
            model.commit()
            model.check(node.state)
    finally:
        node.close()


@settings(max_examples=200, deadline=None)
@given(script=scripts)
def test_revocation_verdicts_follow_the_reference_crl(script):
    run_network(script)
    with tempfile.TemporaryDirectory() as scratch:
        run_node(script, Path(scratch))
