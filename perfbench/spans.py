"""Span tracing from outside the program.

The tracer replaces public functions of cveledger with timing wrappers for
the duration of a traced run. Modules import by name, so each name is
patched at every module that looks it up (for example `verify_payload` in
identity, network, ledger and chaincode). Spans are kept in memory and
written out when the run ends; each records its name, start, end, parent
span and the id of the transaction, command or request it belongs to.

Two very frequent, very short calls (canonical encoding and hex checks)
are aggregated instead of recorded one span each: their count and time
are kept, and their time is charged to the enclosing span as child time,
so self times stay exact without storing a span per call.
"""

from __future__ import annotations

import gzip
import os
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns

from cveledger import canonical, chaincode, cli, httpapi, identity, ledger, network, node, storage
from cveledger.errors import LedgerError


def _execute_kind(args, kwargs) -> str:
    return "chaincode.dry_run" if kwargs.get("check_only") else "chaincode.apply"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans and counters of one traced run; `active()` patches the layer
    boundaries for the timed part only."""

    def __init__(self) -> None:
        # one entry per span, in parallel arrays to keep a long run small
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.child_ns = array("q")
        self.op_labels: list[str] = []
        self.current_op = -1
        # a span opened on another thread (the HTTP client) that roots the
        # server-side spans of the request in flight
        self.ambient_parent = -1
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- op ids ---------------------------------------------------------------

    def begin_op(self, label: str) -> int:
        self.op_labels.append(label)
        self.current_op = len(self.op_labels) - 1
        return self.current_op

    # -- recording --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
            cross = False
        else:
            parent = self.ambient_parent
            cross = parent >= 0
        index = len(self.start)
        # reserve the slot now so that children can point at it
        self.span_name.append(0)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.child_ns.append(0)
        frame = [index, 0, cross]
        stack.append(frame)
        return frame

    def _close(self, frame, name: str, start: int, end: int) -> None:
        stack = self._stack()
        stack.pop()
        index, child_ns, cross = frame
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name[index] = name_id
        self.start[index] = start
        self.end[index] = end
        self.child_ns[index] += child_ns
        duration = end - start
        if stack:
            stack[-1][1] += duration
        elif cross:
            self.child_ns[self.parent[index]] += duration

    def _leaf(self, name: str, duration: int) -> None:
        self.leaf_calls[name] += 1
        self.leaf_ns[name] += duration
        stack = self._stack()
        if stack:
            stack[-1][1] += duration
        elif self.ambient_parent >= 0:
            self.child_ns[self.ambient_parent] += duration

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name, kind=None, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = kind(args, kwargs) if kind is not None else name
            state = before(args, kwargs) if before is not None else None
            frame = tracer._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except LedgerError:
                tracer.counters[span_name + ".raised"] += 1
                raise
            finally:
                tracer._close(frame, span_name, start, perf_counter_ns())
            if after is not None:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, fn, name, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leaf(name, perf_counter_ns() - start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def patch_function(self, sites, attr: str, name: str, *, leaf=False, **hooks) -> None:
        """Wrap the function bound to `attr` at every module in `sites`
        (all bind the same function object)."""
        original = getattr(sites[0], attr)
        for site in sites[1:]:
            if getattr(site, attr) is not original:
                raise RuntimeError(f"{site.__name__}.{attr} is not {sites[0].__name__}.{attr}")
        if leaf:
            wrapper = self._leaf_wrapper(original, name, **hooks)
        else:
            wrapper = self._span_wrapper(original, name, **hooks)
        for site in sites:
            self._set(site, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap a method or classmethod on its class, so every caller sees
        the wrapper whichever module it reached the class through."""
        descriptor = cls.__dict__[attr]
        if isinstance(descriptor, classmethod):
            self._set(cls, attr, classmethod(self._span_wrapper(descriptor.__func__, name, **hooks)))
        else:
            self._set(cls, attr, self._span_wrapper(descriptor, name, **hooks))

    @contextmanager
    def remote_parent(self, name: str):
        """A span on this thread that parents the spans other threads open
        while it lasts (the server side of one HTTP request)."""
        with self.span(name) as context:
            self.ambient_parent = context.frame[0]
            try:
                yield
            finally:
                self.ambient_parent = -1

    @contextmanager
    def active(self):
        """Patch the layer boundaries for the duration of the block."""
        install(self)
        try:
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def recorded_calls(self) -> tuple[int, int]:
        """(spans recorded, aggregated calls)."""
        return len(self.start), sum(self.leaf_calls.values())


    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms. Self time is the
        span's duration minus the time its children cover. A span nested
        directly in one of the same name adds to the calls but not again to
        the inclusive time."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        names = self.span_name
        for name_id, start, end, child, parent in zip(names, self.start, self.end, self.child_ns, self.parent):
            calls[name_id] += 1
            if parent < 0 or names[parent] != name_id:
                total[name_id] += end - start
            own[name_id] += end - start - child
        out = {
            name: {"calls": calls[i], "ms": total[i] / 1e6, "self_ms": own[i] / 1e6}
            for i, name in enumerate(self.names)
        }
        for name, count in self.leaf_calls.items():
            ms = self.leaf_ns[name] / 1e6
            out[name] = {"calls": count, "ms": ms, "self_ms": ms}
        return out

    def write(self, path: Path) -> None:
        """Gzipped tab-separated spans: index, parent, op label, name, start,
        end, self time (ns); aggregated calls as trailing comment lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.start)):
                op = self.op[i]
                label = self.op_labels[op] if op >= 0 else ""
                start, end = self.start[i], self.end[i]
                fh.write(
                    f"{i}\t{self.parent[i]}\t{label}\t{self.names[self.span_name[i]]}\t"
                    f"{start}\t{end}\t{end - start - self.child_ns[i]}\n"
                )
            for name, count in sorted(self.leaf_calls.items()):
                fh.write(f"# aggregated\t{name}\tcalls={count}\tns={self.leaf_ns[name]}\n")


def wrapper_cost_ns(calls: int = 20_000) -> tuple[float, float]:
    """Added cost of one recorded span and of one aggregated call, from
    timing a no-op function bare and wrapped (fastest of three rounds)."""

    def noop():
        return None

    probe = Tracer()
    costs = []
    for wrapped in (probe._span_wrapper(noop, "probe"), probe._leaf_wrapper(noop, "probe")):
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter_ns()
            for _ in range(calls):
                noop()
            t1 = perf_counter_ns()
            for _ in range(calls):
                wrapped()
            best = min(best, (perf_counter_ns() - t1 - (t1 - t0)) / calls)
        costs.append(best)
    return costs[0], costs[1]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer._open()
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.name, self.start, perf_counter_ns())
        return False


class NullTracer:
    """Stand-in with the tracer's interface for untraced runs."""

    current_op = -1
    ambient_parent = -1

    def begin_op(self, label: str) -> int:
        return -1

    def span(self, name: str):
        return _NULL_CONTEXT

    def remote_parent(self, name: str):
        return _NULL_CONTEXT

    def active(self):
        return nullcontext(self)


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are taken at."""
    c = tracer.counters

    def count_encoded(result) -> None:
        c["canonical.encode_bytes"] += len(result) if result.isascii() else len(result.encode("utf-8"))

    def count_rows(args, kwargs, result, state) -> None:
        c["ledger.query_rows_returned"] += len(result)

    def count_endorsements(args, kwargs, result, state) -> None:
        if result.accepted:
            c["network.accepted_txs"] += 1
            c["network.endorsements"] += len(result.tx.endorsements)

    def count_blocks(args, kwargs, result, state) -> None:
        c["network.blocks_cut"] += len(result)
        c["network.txs_in_blocks"] += sum(len(b.txs) for b in result)

    def size_before(args, kwargs):
        return _file_size(args[0])

    def count_written(args, kwargs, result, before) -> None:
        c["storage.bytes_written"] += _file_size(args[0]) - before
        c["storage.txs_written"] += len(args[1].txs)

    def count_read(args, kwargs, result, before) -> None:
        c["storage.read_bytes"] += before

    # identity
    tracer.patch_function([identity, network, ledger], "sign_payload", "identity.sign")
    tracer.patch_function([identity, network, ledger, chaincode], "verify_payload", "identity.verify")
    tracer.patch_function([network], "verify_certificate", "identity.cert_verify")
    # canonical
    tracer.patch_function(
        [canonical, identity, network, node, cli, httpapi], "to_canonical_json", "canonical.encode",
        leaf=True, after=count_encoded,
    )
    tracer.patch_function([canonical, identity, ledger, chaincode], "is_hex_digest", "canonical.hex_check", leaf=True)
    # chaincode
    tracer.patch_function([network, ledger], "execute_transaction", "chaincode.execute", kind=_execute_kind)
    tracer.patch_function([chaincode], "check_embargo_releases", "chaincode.embargo_sweep")
    # ledger
    tracer.patch_method(ledger.Transaction, "build", "ledger.tx_build")
    tracer.patch_method(ledger.Block, "from_dict", "ledger.block_decode")
    tracer.patch_function([network], "append_block", "ledger.append_block")
    tracer.patch_function([network, ledger], "apply_block", "ledger.apply_block")
    tracer.patch_function([ledger, cli], "replay", "ledger.replay")
    tracer.patch_function([ledger, network, cli, node], "state_hash", "ledger.state_hash")
    tracer.patch_function([ledger, httpapi], "query_public", "ledger.query", after=count_rows)
    tracer.patch_function([ledger, httpapi], "record_view", "ledger.record_view")
    # network
    tracer.patch_method(network.SimulatedNetwork, "submit_tx", "network.submit", after=count_endorsements)
    tracer.patch_method(network.SimulatedNetwork, "tick", "network.tick", after=count_blocks)
    tracer.patch_method(network.SimulatedNetwork, "from_materials", "network.from_materials")
    tracer.patch_method(network.Peer, "endorse", "network.endorse")
    # storage
    tracer.patch_function(
        [storage, node], "append_block_file", "storage.append", before=size_before, after=count_written
    )
    tracer.patch_function([os], "fsync", "storage.fsync")
    tracer.patch_function(
        [storage, node, cli], "read_chain", "storage.read_chain", before=size_before, after=count_read
    )
    tracer.patch_function(
        [storage, node, cli, httpapi], "audit_file", "storage.audit", before=size_before, after=count_read
    )
    # node
    tracer.patch_method(node.Node, "open", "node.open")
    for method in ("submit", "update_status", "reject", "dispute", "tick"):
        tracer.patch_method(node.Node, method, "node.mutation")
    # httpapi
    tracer.patch_function([httpapi], "redacted_block_dict", "httpapi.redact")
    tracer.patch_function([ledger, httpapi], "content_commitment", "httpapi.redact")


PER_LAYER = (
    "identity.sign_calls", "identity.sign_ms", "identity.verify_calls", "identity.verify_ms",
    "identity.cert_verify_calls",
    "canonical.encode_calls", "canonical.encode_ms", "canonical.encode_bytes",
    "canonical.hex_check_calls", "canonical.hex_check_ms",
    "chaincode.dry_run_calls", "chaincode.dry_run_ms", "chaincode.apply_calls", "chaincode.apply_ms",
    "chaincode.guard_failures", "chaincode.embargo_sweep_ms",
    "ledger.tx_build_ms", "ledger.append_block_ms", "ledger.apply_block_ms", "ledger.replay_ms",
    "ledger.state_hash_calls", "ledger.state_hash_ms", "ledger.block_decode_ms",
    "ledger.query_calls", "ledger.query_ms", "ledger.query_rows_returned", "ledger.record_view_ms",
    "network.submit_ms", "network.endorse_calls", "network.endorse_ms", "network.endorsements_per_tx",
    "network.cert_cache_hit_ratio", "network.order_wait_ms", "network.tick_ms", "network.txs_per_block",
    "network.from_materials_ms",
    "storage.append_ms", "storage.fsyncs", "storage.bytes_written", "storage.bytes_per_tx",
    "storage.read_chain_ms", "storage.read_bytes", "storage.audit_ms",
    "node.open_ms", "node.mutation_ms",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics common to every workload: counts, and total
    inclusive milliseconds spent in each boundary during the timed part."""
    s = tracer.summary()
    c = tracer.counters

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def ms(name):
        return s.get(name, {}).get("ms", 0.0)

    endorse_calls = calls("network.endorse")
    txs_written = c["storage.txs_written"]
    return {
        "identity.sign_calls": calls("identity.sign"),
        "identity.sign_ms": ms("identity.sign"),
        "identity.verify_calls": calls("identity.verify"),
        "identity.verify_ms": ms("identity.verify"),
        "identity.cert_verify_calls": calls("identity.cert_verify"),
        "canonical.encode_calls": calls("canonical.encode"),
        "canonical.encode_ms": ms("canonical.encode"),
        "canonical.encode_bytes": c["canonical.encode_bytes"],
        "canonical.hex_check_calls": calls("canonical.hex_check"),
        "canonical.hex_check_ms": ms("canonical.hex_check"),
        "chaincode.dry_run_calls": calls("chaincode.dry_run"),
        "chaincode.dry_run_ms": ms("chaincode.dry_run"),
        "chaincode.apply_calls": calls("chaincode.apply"),
        "chaincode.apply_ms": ms("chaincode.apply"),
        "chaincode.guard_failures": c["chaincode.dry_run.raised"] + c["chaincode.apply.raised"],
        "chaincode.embargo_sweep_ms": ms("chaincode.embargo_sweep"),
        "ledger.tx_build_ms": ms("ledger.tx_build"),
        "ledger.append_block_ms": ms("ledger.append_block"),
        "ledger.apply_block_ms": ms("ledger.apply_block"),
        "ledger.replay_ms": ms("ledger.replay"),
        "ledger.state_hash_calls": calls("ledger.state_hash"),
        "ledger.state_hash_ms": ms("ledger.state_hash"),
        "ledger.block_decode_ms": ms("ledger.block_decode"),
        "ledger.query_calls": calls("ledger.query"),
        "ledger.query_ms": ms("ledger.query"),
        "ledger.query_rows_returned": c["ledger.query_rows_returned"],
        "ledger.record_view_ms": ms("ledger.record_view"),
        "network.submit_ms": ms("network.submit"),
        "network.endorse_calls": endorse_calls,
        "network.endorse_ms": ms("network.endorse"),
        "network.endorsements_per_tx": (
            c["network.endorsements"] / c["network.accepted_txs"] if c["network.accepted_txs"] else 0.0
        ),
        "network.cert_cache_hit_ratio": (
            1.0 - calls("identity.cert_verify") / endorse_calls if endorse_calls else 0.0
        ),
        "network.tick_ms": ms("network.tick"),
        "network.txs_per_block": (
            c["network.txs_in_blocks"] / c["network.blocks_cut"] if c["network.blocks_cut"] else 0.0
        ),
        "network.from_materials_ms": ms("network.from_materials"),
        "storage.append_ms": ms("storage.append"),
        "storage.fsyncs": calls("storage.fsync"),
        "storage.bytes_written": c["storage.bytes_written"],
        "storage.bytes_per_tx": c["storage.bytes_written"] / txs_written if txs_written else 0.0,
        "storage.read_chain_ms": ms("storage.read_chain"),
        "storage.read_bytes": c["storage.read_bytes"],
        "storage.audit_ms": ms("storage.audit"),
        "node.open_ms": ms("node.open"),
        "node.mutation_ms": ms("node.mutation"),
        "httpapi.redact_ms": ms("httpapi.redact"),
    }
