"""Store server lifecycle: admission control, drain, crashes, socket hygiene.

One server, its clients and its shutdown path: ``--max-inflight``
refusals are typed and retried through, a refused or failed request
frees its admission slot and is never counted as served, a drain
refuses new work and settles, SIGTERM on a real ``python -m
repro.serve`` process drains and removes the socket and ready file,
SIGKILL loses no acknowledged write and a sweep re-runs against the
restarted server, and binding a unix socket replaces only a stale
socket file.
"""

from __future__ import annotations

import asyncio
import pathlib
import socket
import threading
import time

import pytest

from repro.core.experiments import run_configuration
from repro.errors import PersistError, RemoteStoreError, ServerOverloadedError
from repro.llm.simulated import SimulatedModel
from repro.llm.types import ModelUsage
from repro.runtime import RetryPolicy
from repro.runtime.units import Generation
from repro.serve import StoreServer, open_store
from repro.testing import InProcessServer, ServerProcess

FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)


def make_generation(i: int = 0) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/gpt-4o",
        completion=f"lifecycle payload #{i}",
        usage=ModelUsage(input_tokens=10 + i, output_tokens=20 + i),
        elapsed_s=0.125 * i,
    )


def _slow_ping(server: StoreServer, request):
    time.sleep(0.1)
    return StoreServer._op_ping(server, request)


class _SlowPingServer(StoreServer):
    _OPS = {**StoreServer._OPS, "ping": _slow_ping}


class TestAdmissionControl:
    def test_max_inflight_validated(self, tmp_path):
        with pytest.raises(PersistError, match="max_inflight"):
            StoreServer(tmp_path / "s", max_inflight=0)

    def test_overload_refusal_is_typed_and_clients_retry_through(self, tmp_path):
        server = InProcessServer(
            tmp_path / "srv",
            server=_SlowPingServer(tmp_path / "srv", shards=1, max_inflight=1),
        )
        patient = RetryPolicy(max_attempts=8, base_delay=0.05, max_delay=0.2)
        results, errors = [], []

        def ping():
            try:
                with open_store(server.url(), retry=patient) as remote:
                    results.append(remote.ping()["server"])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=ping) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert results == ["repro.serve/1"] * 3
            refused = server.server._ops_total.value(op="ping", status="refused")
            assert refused >= 1  # the gate actually fired
        finally:
            server.stop()

    def test_exhausted_retries_raise_the_overload_error(self, tmp_path):
        server = InProcessServer(tmp_path / "srv", shards=1)
        try:
            server.server.drain()  # refuses forever: retries must give up
            with open_store(server.url(), retry=FAST_RETRY) as remote:
                with pytest.raises(ServerOverloadedError, match="draining"):
                    remote.ping()
            # typed and retryable: FaultPolicy-armed sweeps back off on it
            assert RetryPolicy().is_retryable(ServerOverloadedError("x"))
        finally:
            server.stop()


class TestDrain:
    def test_drain_refuses_new_work_and_wait_drained_settles(self, tmp_path):
        server = StoreServer(tmp_path / "srv", shards=1)
        assert server.handle({"op": "ping"})["ok"]
        server.drain()
        assert server.draining
        refused = server.handle({"op": "ping"})
        assert not refused["ok"]
        assert refused["error_type"] == "ServerOverloadedError"
        assert asyncio.run(server.wait_drained(timeout_s=1.0))
        assert server.inflight == 0
        for store in server.stores:
            store.close()


class TestAdmissionAccounting:
    """The admission gate's bookkeeping, driven through ``handle``."""

    def test_refusals_are_metered_but_not_served(self, tmp_path):
        server = StoreServer(tmp_path / "srv", shards=1)
        try:
            server.handle({"op": "ping"})
            server.drain()
            refused = server.handle({"op": "ping"})
            assert refused["error"] == (
                "server is draining; retry after it restarts"
            )
            assert server._requests_served == 1
            assert server._ops_total.value(op="ping", status="ok") == 1
            assert server._ops_total.value(op="ping", status="refused") == 1
            assert server.inflight == 0
        finally:
            for store in server.stores:
                store.close()

    def test_a_failing_handler_releases_its_slot(self, tmp_path):
        server = StoreServer(tmp_path / "srv", shards=1, max_inflight=1)
        try:
            failed = server.handle({"op": "get_records", "kind": "nope",
                                    "keys": []})
            assert failed["error_type"] == "PersistError"
            unknown = server.handle({"op": "frobnicate"})
            assert unknown["error_type"] == "RemoteStoreError"
            assert server.inflight == 0
            # the one slot is free again: the next request is admitted
            assert server.handle({"op": "ping"})["ok"]
            assert server._ops_total.value(op="unknown", status="error") == 1
        finally:
            for store in server.stores:
                store.close()

    def test_over_capacity_refusal_names_the_limit(self, tmp_path):
        server = _SlowPingServer(tmp_path / "srv", shards=1, max_inflight=1)
        slow = threading.Thread(target=server.handle, args=({"op": "ping"},))
        try:
            slow.start()
            deadline = time.monotonic() + 10
            while server.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            refused = server.handle({"op": "stats"})
            assert refused["error_type"] == "ServerOverloadedError"
            assert refused["error"] == (
                "server over capacity (1 request(s) in flight)"
            )
            slow.join(timeout=10)
            assert server.handle({"op": "stats"})["ok"]
        finally:
            slow.join(timeout=10)
            for store in server.stores:
                store.close()

    def test_wait_drained_times_out_while_a_request_is_in_flight(self, tmp_path):
        server = _SlowPingServer(tmp_path / "srv", shards=1)
        slow = threading.Thread(target=server.handle, args=({"op": "ping"},))
        try:
            slow.start()
            deadline = time.monotonic() + 10
            while server.inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            server.drain()
            assert not asyncio.run(server.wait_drained(timeout_s=0.0))
            slow.join(timeout=10)
            assert asyncio.run(server.wait_drained(timeout_s=1.0))
            assert server.inflight == 0
        finally:
            slow.join(timeout=10)
            for store in server.stores:
                store.close()


class TestServerProcess:
    """A real ``python -m repro.serve`` subprocess and its SIGTERM path."""

    def test_sigterm_drains_and_cleans_up(self, tmp_path):
        sock = tmp_path / "drain.sock"
        server = ServerProcess(
            tmp_path / "proc", extra_args=["--unix", str(sock)]
        )
        try:
            assert sock.exists()
            assert server.ready_file.exists()
            code = server.terminate()
            assert code == 0
            # graceful exit removed the socket and the ready file
            assert not sock.exists()
            assert not server.ready_file.exists()
        finally:
            server.kill()


    def test_acknowledged_writes_survive_sigkill(self, tmp_path):
        gens = [make_generation(i) for i in range(24)]
        root = tmp_path / "proc"
        with ServerProcess(root) as first:
            with open_store(first.url(), retry=FAST_RETRY) as remote:
                remote.put_generations(gens)  # answered: the write is done
                first.kill()
                assert not first.alive
                with pytest.raises(RemoteStoreError, match="unreachable"):
                    remote.ping()
        with ServerProcess(root) as second:
            with open_store(second.url(), retry=FAST_RETRY) as remote:
                found = remote.get_generations([g.key for g in gens])
                assert remote.verify().clean
        assert {k: g.completion for k, g in found.items()} == {
            g.key: g.completion for g in gens
        }

    def test_sweep_outlives_a_sigkill_of_its_only_server(
        self, tmp_path, monkeypatch
    ):
        reference = run_configuration(**SMALL)
        root = tmp_path / "proc"
        with ServerProcess(root) as first:
            # SIGKILL the server at the sweep's first generation: mid-run
            # by construction, however fast the sweep
            generate = SimulatedModel.generate

            def kill_then_generate(model, *args, **kwargs):
                first.kill()
                return generate(model, *args, **kwargs)

            monkeypatch.setattr(SimulatedModel, "generate", kill_then_generate)
            try:
                with open_store(first.url(), retry=FAST_RETRY) as remote:
                    with pytest.raises(RemoteStoreError):
                        run_configuration(**SMALL, store=remote)
            finally:
                monkeypatch.undo()
            assert not first.alive
        # a restarted server on the same root: the sweep re-runs whole
        with ServerProcess(root) as second:
            with open_store(second.url(), retry=FAST_RETRY) as remote:
                grid = run_configuration(**SMALL, store=remote)
                warm = run_configuration(**SMALL, store=remote)
                manifest = remote.latest_manifest()
                assert remote.verify().clean
        assert manifest.stats.generated == 0
        for row in reference.row_keys:
            for model in reference.models:
                assert grid.cell(row, model) == reference.cell(row, model)
                assert warm.cell(row, model) == reference.cell(row, model)

class TestUnixSocketHygiene:
    def test_stale_socket_file_is_replaced_on_bind(self, tmp_path):
        path = tmp_path / "stale.sock"
        # a previous process died hard and left its socket file behind
        left_behind = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        left_behind.bind(str(path))
        left_behind.close()
        assert path.exists()

        async def boot() -> None:
            server = StoreServer(tmp_path / "srv", shards=1)
            bound = await server.start_unix(path)
            assert pathlib.Path(bound).exists()
            await server.aclose()

        asyncio.run(boot())

    def test_regular_file_at_socket_path_is_refused(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("not a socket")

        async def boot() -> None:
            server = StoreServer(tmp_path / "srv", shards=1)
            try:
                with pytest.raises(PersistError, match="non-socket"):
                    await server.start_unix(path)
            finally:
                await server.aclose()

        asyncio.run(boot())
        assert path.read_text() == "not a socket"  # untouched
