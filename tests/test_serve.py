"""Networked store service: protocol, server, client, RunConfig."""

from __future__ import annotations

import asyncio
import json
import pathlib
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments import run_configuration
from repro.core.scorers import Score
from repro.errors import (
    HarnessError,
    PersistError,
    RemoteStoreError,
    StoreError,
)
from repro.llm.types import ModelUsage
from repro.persist import RunStore
from repro.persist.records import SCORE_KIND, generation_payload
from repro.runtime import (
    FaultPolicy,
    InMemoryResultCache,
    Plan,
    RetryPolicy,
    RunConfig,
    SerialExecutor,
    ThreadedExecutor,
    run,
)
from repro.runtime.units import Generation
from repro.serve import (
    RemoteRunStore,
    StoreClient,
    StoreServer,
    TornFrameError,
    encode_frame,
    open_store,
    parse_store_url,
    read_frame,
    shard_for,
    write_frame,
)
from repro.serve.client import CHUNK
from repro.serve.cli import _parse_tcp
from repro.serve.url import split_host_port, url_host
from repro.testing import InProcessServer

SMALL = dict(models=["o3", "llama-3.3-70b"], systems=["adios2", "wilkins"], epochs=2)


def make_generation(i: int = 0) -> Generation:
    return Generation(
        key=f"{i:064x}",
        model="sim/gpt-4o",
        completion=f"serve payload #{i}\nwith ünïcode",
        usage=ModelUsage(input_tokens=10 + i, output_tokens=20 + i),
        elapsed_s=0.125 * i,
    )


FAST_RETRY = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05)


class ServerThread:
    """A StoreServer on its own event loop; TCP + unix, stoppable."""

    def __init__(
        self, root: pathlib.Path, *, shards: int = 2, port: int = 0
    ) -> None:
        self.root = root
        self._ready = threading.Event()
        self._boot_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self.port = 0
        self.unix_path = str(root.parent / f"{root.name}.sock")
        self._thread = threading.Thread(
            target=self._main, args=(shards, port), daemon=True
        )
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not come up"
        if self._boot_error is not None:
            raise self._boot_error

    def _main(self, shards: int, port: int) -> None:
        async def body() -> None:
            try:
                server = StoreServer(self.root, shards=shards)
                _, self.port = await server.start_tcp("127.0.0.1", port)
                await server.start_unix(self.unix_path)
            except BaseException as exc:
                self._boot_error = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await server.aclose()

        asyncio.run(body())

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)

    def tcp_url(self) -> str:
        return f"tcp://127.0.0.1:{self.port}"

    def client(self, **options) -> RemoteRunStore:
        options.setdefault("retry", FAST_RETRY)
        return open_store(self.tcp_url(), **options)

    def unix_client(self, **options) -> RemoteRunStore:
        options.setdefault("retry", FAST_RETRY)
        return open_store(f"unix://{self.unix_path}", **options)


@pytest.fixture()
def server(tmp_path):
    srv = ServerThread(tmp_path / "served")
    yield srv
    srv.stop()


class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        payload = {"op": "ping", "data": ["x"] * 10, "n": 3}
        write_frame(a, payload)
        assert read_frame(b) == payload
        a.close()
        assert read_frame(b) is None  # clean EOF between frames
        b.close()

    def test_torn_body_raises(self):
        a, b = socket.socketpair()
        wire = encode_frame({"op": "ping"})
        a.sendall(wire[: len(wire) - 3])  # cut mid-body
        a.close()
        with pytest.raises(TornFrameError):
            read_frame(b)
        b.close()

    def test_torn_header_raises(self):
        a, b = socket.socketpair()
        a.sendall(b"\x00\x00")  # 2 of 4 length bytes
        a.close()
        with pytest.raises(TornFrameError):
            read_frame(b)
        b.close()

    def test_oversized_length_refused_before_allocation(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", (1 << 31)))
        with pytest.raises(RemoteStoreError, match="MAX_FRAME"):
            read_frame(b)
        a.close()
        b.close()

    def test_non_object_body_refused(self):
        a, b = socket.socketpair()
        body = json.dumps([1, 2, 3]).encode()
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(RemoteStoreError, match="JSON object"):
            read_frame(b)
        a.close()
        b.close()


class TestUrls:
    def test_parse_schemes(self):
        assert parse_store_url("runs/store") == ("local", "runs/store")
        assert parse_store_url("tcp://h:9045") == ("tcp", ("h", 9045))
        assert parse_store_url("repro+tcp://h:1") == ("tcp", ("h", 1))
        assert parse_store_url("unix:///tmp/s.sock") == ("unix", "/tmp/s.sock")
        assert parse_store_url("repro+unix:///tmp/s.sock") == (
            "unix",
            "/tmp/s.sock",
        )
        assert parse_store_url("tcp://127.0.0.1:9045") == (
            "tcp",
            ("127.0.0.1", 9045),
        )
        # IPv6 hosts are bracketed in the URL, bare for getaddrinfo
        assert parse_store_url("tcp://[::1]:9045") == ("tcp", ("::1", 9045))
        assert parse_store_url("tcp://[::1]:0") == ("tcp", ("::1", 0))

    def test_malformed_urls_refused(self):
        with pytest.raises(StoreError, match="tcp://host:port"):
            parse_store_url("tcp://nohost")
        with pytest.raises(StoreError, match="unknown store URL scheme"):
            parse_store_url("ftp://h:1")
        with pytest.raises(StoreError, match="name one store"):
            parse_store_url("tcp://a:1,tcp://b:2")
        with pytest.raises(StoreError, match="name one store"):
            open_store("unix:///tmp/a.sock,unix:///tmp/b.sock")

    def test_cli_tcp_flag_shares_the_url_parser(self):
        assert _parse_tcp("[::1]:9045") == ("::1", 9045)
        assert _parse_tcp("0.0.0.0:0") == ("0.0.0.0", 0)
        assert _parse_tcp(":9045") == ("127.0.0.1", 9045)
        with pytest.raises(SystemExit, match="HOST:PORT"):
            _parse_tcp("nohost")

    def test_described_address_round_trips(self):
        for host in ("127.0.0.1", "cache-host", "::1"):
            client = StoreClient(("tcp", (host, 9045)))
            url = client.describe_address()
            assert parse_store_url(url) == ("tcp", (host, 9045))
        assert client.describe_address() == "tcp://[::1]:9045"

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("127.0.0.1:9045", ("127.0.0.1", 9045)),
            ("cache-host:1", ("cache-host", 1)),
            ("h:0", ("h", 0)),
            ("h:65535", ("h", 65535)),
            ("[::1]:9045", ("::1", 9045)),
            ("[2001:db8::7]:443", ("2001:db8::7", 443)),
            ("[fe80::1%eth0]:80", ("fe80::1%eth0", 80)),
            (":9045", ("", 9045)),  # the CLI's "default host" form
        ],
    )
    def test_split_host_port_accepts(self, value, expected):
        assert split_host_port(value) == expected

    @pytest.mark.parametrize(
        "value",
        [
            "nohost",
            "h:",
            "h:port",
            "h:-1",
            "h:65536",
            "h: 1",
            "h:\u00b2",  # superscript two: isdigit() but not int()-able
            "h:\u0663",  # Arabic-Indic three: a digit, but not ASCII
            "::1:9045",  # IPv6 without brackets: where does the host end?
            "[::1:9045",
            "::1]:9045",
            "[::1]",
            "[]:9045",
            "[h]x:1",
        ],
    )
    def test_split_host_port_refuses(self, value):
        assert split_host_port(value) is None
        # one parser: the store URL and the --tcp flag refuse alike
        with pytest.raises(StoreError, match="tcp://host:port"):
            parse_store_url(f"tcp://{value}")
        with pytest.raises(SystemExit, match="HOST:PORT"):
            _parse_tcp(value)

    @pytest.mark.parametrize(
        "url",
        [
            "tcp://a:1,tcp://b:2",
            "repro+tcp://a:1,repro+tcp://b:2",
            "tcp://a:1,b:2",
            "unix:///tmp/a.sock,unix:///tmp/b.sock",
            "tcp://a:1,unix:///tmp/b.sock",
            "tcp://a:1,",
        ],
    )
    def test_comma_separated_urls_name_one_store(self, url):
        with pytest.raises(StoreError, match="name one store"):
            parse_store_url(url)

    def test_comma_in_a_local_path_is_just_a_path(self, tmp_path):
        path = str(tmp_path / "runs,v2")
        assert parse_store_url(path) == ("local", path)

    @settings(max_examples=100, deadline=None)
    @given(
        host=st.one_of(
            st.ip_addresses(v=4).map(str),
            st.ip_addresses(v=6).map(str),
            st.from_regex(r"[a-z][a-z0-9-]{0,20}(\.[a-z][a-z0-9-]{0,10}){0,2}",
                          fullmatch=True),
        ),
        port=st.integers(0, 65535),
    )
    def test_url_host_round_trips_through_the_parser(self, host, port):
        url = f"tcp://{url_host(host)}:{port}"
        assert parse_store_url(url) == ("tcp", (host, port))
        assert _parse_tcp(f"{url_host(host)}:{port}") == (host, port)

    def test_open_store_local_path(self, tmp_path):
        store = open_store(str(tmp_path / "local"))
        assert isinstance(store, RunStore)
        store.close()

    def test_open_store_rejects_client_options_on_local_path(self, tmp_path):
        with pytest.raises(StoreError, match="meaningless"):
            open_store(str(tmp_path / "local"), pool_size=2)


class TestSharding:
    def test_shard_for_is_stable_and_spread(self):
        keys = [f"{i:064x}" for i in range(512)]
        first = [shard_for(key, 4) for key in keys]
        assert first == [shard_for(key, 4) for key in keys]
        assert set(first) == {0, 1, 2, 3}  # all shards populated

    def test_shard_count_mismatch_refused(self, tmp_path, server):
        with pytest.raises(PersistError, match="--shards 2"):
            StoreServer(server.root, shards=5)

    def test_records_land_on_hashed_shards(self, server):
        gens = [make_generation(i) for i in range(32)]
        with server.client() as remote:
            remote.put_generations(gens)
        for gen in gens:
            shard = RunStore(
                server.root / f"shard-{shard_for(gen.key, 2):02d}"
            )
            assert shard.get_generation(gen.key) is not None
            shard.close()


class TestRemoteRoundTrip:
    def test_generations_roundtrip_and_cached_flag(self, server):
        gens = [make_generation(i) for i in range(20)]
        with server.client() as remote:
            remote.put_generations(gens)
            found = remote.get_generations([g.key for g in gens] + ["f" * 64])
        assert len(found) == 20
        assert found[gens[3].key].completion == gens[3].completion
        assert found[gens[3].key].usage == gens[3].usage
        cache = server.client().result_cache
        hit = cache.get(gens[0].key)
        assert hit is not None and hit.cached  # cache facade marks provenance

    def test_manifest_roundtrip_and_resume_linkage(self, server):
        plan = Plan("serve-test")
        from repro.core.experiments.configuration import configuration_task

        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=2)
        with server.client() as remote:
            first = run(plan, store=remote)
            second = run(plan, store=remote)
            listed = remote.manifests()
        assert first.manifest is not None
        assert second.manifest.resumed_from == first.manifest.run_id
        assert [m.run_id for m in listed] == [
            first.manifest.run_id,
            second.manifest.run_id,
        ]

    def test_server_errors_arrive_typed(self, server):
        with server.client() as remote:
            with pytest.raises(PersistError, match="unknown record kind"):
                remote.get_records("nope", ["k"])
            with pytest.raises(StoreError, match="unknown op"):
                remote.client.request({"op": "frobnicate"})

    def test_stats_sum_shards_and_root_is_url(self, server):
        with server.client() as remote:
            remote.put_generations([make_generation(i) for i in range(8)])
            stats = remote.stats()
            shards = remote.shard_stats()
        assert stats.root == server.tcp_url()
        assert stats.generations == 8
        assert stats.generations == sum(s.generations for s in shards)
        assert len(shards) == 2

    def test_unix_and_tcp_serve_identical_records(self, server):
        gens = [make_generation(i) for i in range(12)]
        with server.client() as tcp:
            tcp.put_generations(gens)
        with server.unix_client() as unix:
            found = unix.get_generations([g.key for g in gens])
            assert unix.ping()["shards"] == 2
        assert {k: g.completion for k, g in found.items()} == {
            g.key: g.completion for g in gens
        }


class TestFaultPaths:
    def test_torn_frame_mid_put_persists_nothing(self, server):
        with server.client() as remote:
            remote.put_generations([make_generation(0)])
            before = remote.stats().generations

        # a raw client dies mid-frame of a big put_records batch
        payloads = [
            {"kind": "gen", "key": f"{i:064x}", "model": "m", "completion": "c",
             "elapsed_s": 0.0, "input_tokens": 1, "output_tokens": 1}
            for i in range(100, 140)
        ]
        wire = encode_frame({"op": "put_records", "payloads": payloads})
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(wire[: len(wire) // 2])
        sock.close()  # torn mid-body
        time.sleep(0.1)

        with server.client() as remote:
            # nothing from the torn batch persisted; server still answers
            assert remote.stats().generations == before
            assert remote.ping()["server"] == "repro.serve/1"

    def test_client_reconnects_across_server_restart(self, tmp_path):
        srv = ServerThread(tmp_path / "served")
        gens = [make_generation(i) for i in range(10)]
        remote = srv.client()
        try:
            remote.put_generations(gens)
            first = remote.get_generations([g.key for g in gens[:5]])
            assert len(first) == 5

            port = srv.port
            srv.stop()  # connection in the pool goes stale
            srv = ServerThread(tmp_path / "served", port=port)

            # second batch: stale socket fails, RetryPolicy reconnects
            second = remote.get_generations([g.key for g in gens[5:]])
            assert len(second) == 5
            assert second[gens[7].key].completion == gens[7].completion
        finally:
            remote.close()
            srv.stop()

    def test_unreachable_server_raises_remote_store_error(self):
        url = "tcp://127.0.0.1:1"  # nothing listens on port 1
        remote = open_store(
            url, retry=RetryPolicy(max_attempts=2, base_delay=0.01)
        )
        with pytest.raises(RemoteStoreError, match="after 2 attempts"):
            remote.ping()
        remote.close()

    def test_remote_store_error_is_retryable_model_error(self):
        # the FaultPolicy mapping: network faults retry like provider faults
        assert RetryPolicy().is_retryable(RemoteStoreError("link down"))
        assert isinstance(RemoteStoreError("x"), StoreError)


class TestRemoteSweeps:
    def test_warm_remote_sweep_zero_generations_bit_identical(self, server):
        """Acceptance: remote warm pass = zero generations, same grid."""
        local = run_configuration(**SMALL)

        with server.client() as remote:
            cold = run_configuration(**SMALL, store=remote)
        with server.client() as remote:
            warm = run_configuration(**SMALL, store=remote)
            manifest = remote.latest_manifest()
        assert manifest.stats.generated == 0
        assert manifest.stats.scores_computed == 0
        for row in local.row_keys:
            for model in local.models:
                assert local.cell(row, model) == cold.cell(row, model)
                assert local.cell(row, model) == warm.cell(row, model)

    def test_two_tenants_share_one_server_bit_identical(self, server):
        grids: dict[str, object] = {}
        errors: list[BaseException] = []

        def tenant(name: str) -> None:
            try:
                with server.client() as remote:
                    grids[name] = run_configuration(
                        **SMALL,
                        config=RunConfig(
                            executor=ThreadedExecutor(max_workers=4),
                            store=remote,
                        ),
                    )
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(name,))
            for name in ("tenant-a", "tenant-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        reference = run_configuration(**SMALL)
        for grid in grids.values():
            for row in reference.row_keys:
                for model in reference.models:
                    assert grid.cell(row, model) == reference.cell(row, model)


class TestRunConfig:
    def test_config_equals_legacy_kwargs_across_executors(self, tmp_path):
        executors = {
            "serial": SerialExecutor,
            "threaded": lambda: ThreadedExecutor(max_workers=4),
        }
        reference = run_configuration(**SMALL)
        for make in executors.values():
            via_kwargs = run_configuration(
                **SMALL, executor=make(), cache=InMemoryResultCache()
            )
            via_config = run_configuration(
                **SMALL,
                config=RunConfig(executor=make(), cache=InMemoryResultCache()),
            )
            for row in reference.row_keys:
                for model in reference.models:
                    assert via_kwargs.cell(row, model) == reference.cell(row, model)
                    assert via_config.cell(row, model) == reference.cell(row, model)

    def test_conflicting_knob_raises(self, tmp_path):
        from repro.core.experiments.configuration import configuration_task

        plan = Plan("conflict")
        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        with pytest.raises(HarnessError, match="exactly one place"):
            run(
                plan,
                config=RunConfig(executor=SerialExecutor()),
                executor=SerialExecutor(),
            )

    def test_unknown_knob_refused(self):
        with pytest.raises(HarnessError, match="unknown run knob"):
            RunConfig().merged_with_kwargs(warp_drive=1)

    def test_replace_and_describe(self):
        config = RunConfig(executor=SerialExecutor())
        cleared = config.replace(executor=None)
        assert cleared.executor is None and config.executor is not None
        assert "executor=" in config.describe()
        assert cleared.describe() == "RunConfig(defaults)"

    def test_from_url_local_and_remote(self, tmp_path, server):
        local = RunConfig.from_url(str(tmp_path / "store"))
        assert isinstance(local.store, RunStore)
        assert local.store_url == str(tmp_path / "store")
        local.store.close()

        remote = RunConfig.from_url(server.tcp_url())
        assert isinstance(remote.store, RemoteRunStore)
        remote.store.close()

        with pytest.raises(HarnessError, match="ambiguous"):
            RunConfig.from_url(server.tcp_url(), store=object())

    def test_evaluate_accepts_run_config(self):
        from repro.core.experiments.configuration import configuration_task
        from repro.core.task import evaluate

        task = configuration_task("adios2")
        via_config = evaluate(
            task, "sim/o3", epochs=1, run_config=RunConfig(executor=SerialExecutor())
        )
        via_kwargs = evaluate(task, "sim/o3", epochs=1, executor=SerialExecutor())
        assert via_config.samples[0].scores == via_kwargs.samples[0].scores


class TestStatsSchema:
    def test_all_cache_backends_carry_markers(self, tmp_path, server):
        from repro.runtime import FilesystemResultCache

        with RunStore(tmp_path / "store") as store:
            backends = [
                InMemoryResultCache(),
                FilesystemResultCache(),
                store.result_cache,
                server.client().result_cache,
            ]
            for cache in backends:
                stats = cache.stats()
                assert stats["schema"] == "repro.stats/2"
                assert stats["kind"] == "result_cache"
                assert {"entries", "hits", "misses", "puts"} <= set(stats)

    def test_store_and_run_stats_round_trip(self, tmp_path):
        from repro.persist.store import StoreStats
        from repro.runtime import RunStats

        with RunStore(tmp_path / "store") as store:
            store.put_generations([make_generation(0)])
            payload = store.stats().as_dict()
        assert payload["schema"] == "repro.stats/2"
        assert payload["kind"] == "store"
        assert StoreStats.from_dict(payload) == store.stats()

        plan = Plan("schema")
        from repro.core.experiments.configuration import configuration_task

        plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        stats = run(plan).stats
        round_tripped = RunStats.from_dict(stats.as_dict())
        assert round_tripped == stats

    def test_pre_schema_manifest_payload_rehydrates(self, tmp_path):
        """Manifests written before the unified schema still load."""
        with RunStore(tmp_path / "store") as store:
            outcome = run(small_plan_for(tmp_path), store=store)
            path = (
                store.root / "manifests" / f"{outcome.manifest.run_id}.json"
            )
            payload = json.loads(path.read_text())
            # strip the markers, as an old writer would have
            payload["stats"] = {
                k: v
                for k, v in payload["stats"].items()
                if k not in ("schema", "kind")
            }
            path.write_text(json.dumps(payload))
            old = store.manifest(outcome.manifest.run_id)
        assert old is not None
        assert old.stats == outcome.manifest.stats


def small_plan_for(tmp_path) -> Plan:
    from repro.core.experiments.configuration import configuration_task

    plan = Plan("serve-schema-test")
    plan.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
    return plan


def keys_routed(n: int, shard: int, *, n_shards: int = 2, start: int = 0):
    """The first ``n`` hex keys at or after ``start`` that route to ``shard``."""
    keys, i = [], start
    while len(keys) < n:
        key = f"{i:064x}"
        if shard_for(key, n_shards) == shard:
            keys.append(key)
        i += 1
    return keys


def make_score(value: float = 50.0) -> Score:
    return Score(values={"bleu": value}, answer="served answer")


def op_count(remote: RemoteRunStore, op: str) -> int:
    """Handled requests of one op, as the server's metrics report them."""
    digest = remote.metrics()["summary"]["ops"].get(op)
    return int(digest["count"]) if digest is not None else 0


class TestRemoteMaintenance:
    def test_remote_gc_keeps_scores_whose_generation_lives_on_another_shard(
        self, server
    ):
        # each score routes by its own key, its generation by the
        # generation key: pair them so every score sits on the other shard
        gen_keys = keys_routed(4, 0)
        score_keys = keys_routed(4, 1, start=10_000)
        gens = [
            Generation(
                key=key,
                model="sim/o3",
                completion=f"completion {key[-4:]}",
                usage=ModelUsage(input_tokens=1, output_tokens=1),
                elapsed_s=0.0,
            )
            for key in gen_keys
        ]
        with server.client() as remote:
            remote.put_generations(gens)
            for score_key, gen in zip(score_keys, gens):
                remote.put_score(score_key, gen.key, make_score())
            stats = remote.gc()
            assert stats.orphan_scores_dropped == 0
            assert stats.records_after == 8
            assert remote.stats().scores == 4
            stored = remote.get_records(SCORE_KIND, score_keys)
        assert set(stored) == set(score_keys)

    def test_warm_sweep_after_remote_gc_scores_nothing(self, server):
        with server.client() as remote:
            cold = run_configuration(**SMALL, store=remote)
            assert remote.gc().orphan_scores_dropped == 0
        with server.client() as remote:
            warm = run_configuration(**SMALL, store=remote)
            manifest = remote.latest_manifest()
        assert manifest.stats.generated == 0
        assert manifest.stats.scores_computed == 0
        for row in cold.row_keys:
            for model in cold.models:
                assert warm.cell(row, model) == cold.cell(row, model)

    def test_remote_gc_drops_orphans_the_owning_shard_can_judge(self, server):
        # a score whose (absent) generation routes to the score's own
        # shard is a provable orphan; one routed elsewhere is kept
        same_shard_score, other_shard_score = keys_routed(2, 0, start=20_000)
        absent_local_gen = keys_routed(1, 0, start=30_000)[0]
        absent_remote_gen = keys_routed(1, 1, start=30_000)[0]
        with server.client() as remote:
            remote.put_score(same_shard_score, absent_local_gen, make_score())
            remote.put_score(other_shard_score, absent_remote_gen, make_score())
            stats = remote.gc()
            assert stats.orphan_scores_dropped == 1
            stored = remote.get_records(
                SCORE_KIND, [same_shard_score, other_shard_score]
            )
        assert set(stored) == {other_shard_score}

    def test_remote_gc_compacts_stale_duplicates_on_every_shard(self, server):
        gens = [make_generation(i) for i in range(16)]
        with server.client() as remote:
            remote.put_generations(gens)
            remote.put_generations(gens)  # every record gains a stale twin
            before = remote.verify()
            assert before.clean and before.stale == 16
            stats = remote.gc()
            assert stats.stale_dropped == 16
            assert (stats.records_before, stats.records_after) == (32, 16)
            assert stats.bytes_after < stats.bytes_before
            after = remote.verify()
            assert after.clean and after.stale == 0
            assert after.generations == 16
            found = remote.get_generations([g.key for g in gens])
        assert {k: g.completion for k, g in found.items()} == {
            g.key: g.completion for g in gens
        }

    def test_remote_verify_names_the_corrupt_shard(self, tmp_path):
        from repro.persist.segments import list_segments

        root = tmp_path / "served"
        gens = [
            Generation(
                key=key,
                model="sim/o3",
                completion="to be corrupted",
                usage=ModelUsage(input_tokens=1, output_tokens=1),
                elapsed_s=0.0,
            )
            for key in keys_routed(3, 1)
        ]
        with InProcessServer(root) as srv:
            with open_store(srv.url(), retry=FAST_RETRY) as remote:
                remote.put_generations(gens)
                assert remote.verify().clean
                seg = list_segments(root / "shard-01" / "segments")[0]
                raw = seg.read_bytes().splitlines(keepends=True)
                raw[1] = b"deadbeef " + raw[1].split(b" ", 1)[1]
                seg.write_bytes(b"".join(raw))
                report = remote.verify()
        assert not report.clean
        assert report.problems
        assert all(p.startswith("shard-01: ") for p in report.problems)
        assert any("checksum mismatch" in p for p in report.problems)


class TestStoreClientTransport:
    def test_large_batches_travel_as_pipelined_chunks(self, server):
        gens = [make_generation(i) for i in range(2 * CHUNK + 5)]
        with server.client() as remote:
            remote.put_generations(gens)
            found = remote.get_generations([g.key for g in gens])
            # one request per CHUNK-sized slice, each way
            assert op_count(remote, "put_records") == 3
            assert op_count(remote, "get_records") == 3
        assert len(found) == len(gens)
        assert found[gens[-1].key].completion == gens[-1].completion

    def test_empty_batches_send_nothing(self, server):
        with server.client() as remote:
            assert remote.get_generations([]) == {}
            remote.put_generations([])
            assert remote.client.request_many([]) == []
            assert op_count(remote, "get_records") == 0
            assert op_count(remote, "put_records") == 0

    def test_deterministic_server_errors_are_not_replayed(self, server):
        with server.client() as remote:
            with pytest.raises(PersistError, match="unknown record kind"):
                remote.get_records("nope", ["k"])
            with pytest.raises(StoreError, match="unknown op"):
                remote.client.request({"op": "frobnicate"})
            ops = remote.metrics()["summary"]["ops"]
        # four attempts allowed, one sent: the answer would not change
        assert ops["get_records"]["count"] == 1
        assert ops["unknown"]["count"] == 1

    def test_malformed_payload_refuses_the_whole_batch(self, server):
        good = generation_payload(make_generation(0))
        with server.client() as remote:
            with pytest.raises(PersistError, match="malformed record payload"):
                remote.put_records([good, {"kind": "gen"}])
            assert remote.stats().generations == 0

    def test_a_batch_cut_mid_response_replays_whole_on_a_fresh_connection(
        self, tmp_path
    ):
        path = str(tmp_path / "flaky.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen()
        received: list[list[str]] = []

        def serve() -> None:
            for connection in range(2):
                conn, _ = listener.accept()
                with conn:
                    ops = [read_frame(conn)["op"] for _ in range(3)]
                    received.append(ops)
                    answered = ops[:1] if connection == 0 else ops
                    for i, _op in enumerate(answered):
                        write_frame(conn, {"ok": True, "i": i})
                # the first connection hangs up after one answer

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        client = StoreClient(("unix", path), retry=FAST_RETRY)
        try:
            responses = client.request_many(
                [{"op": "a"}, {"op": "b"}, {"op": "c"}]
            )
            assert [r["i"] for r in responses] == [0, 1, 2]
            assert received == [["a", "b", "c"], ["a", "b", "c"]]
            # the poisoned socket was dropped; only the healthy one pooled
            assert len(client._pool) == 1
        finally:
            client.close()
            thread.join(timeout=10)
            listener.close()

    def test_pool_keeps_at_most_pool_size_connections(self, server):
        remote = server.client(pool_size=2)
        barrier = threading.Barrier(6)
        errors: list[BaseException] = []

        def ping() -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    remote.ping()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=ping) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert not errors
            assert 1 <= len(remote.client._pool) <= 2
        finally:
            remote.close()

    def test_closed_client_refuses_requests(self, server):
        remote = server.client()
        remote.ping()
        remote.close()
        assert remote.client._pool == []
        with pytest.raises(StoreError, match="closed"):
            remote.ping()

    def test_unknown_address_family_refused(self):
        with pytest.raises(StoreError, match="unknown address family"):
            StoreClient(("udp", ("h", 1)))

    def test_fault_policy_lends_its_retry_schedule(self):
        policy = FaultPolicy(retry=RetryPolicy(max_attempts=2, base_delay=0.01))
        remote = open_store("tcp://127.0.0.1:1", retry=policy)
        try:
            assert remote.client.retry is policy.retry
            with pytest.raises(RemoteStoreError, match="after 2 attempts"):
                remote.ping()
        finally:
            remote.close()


class TestRemoteCaches:
    def test_result_cache_counts_hits_misses_and_puts(self, server):
        gens = [make_generation(i) for i in range(4)]
        with server.client() as remote:
            cache = remote.result_cache
            assert cache.get(gens[0].key) is None
            cache.put(gens[0])
            cache.put_many(gens[1:3])
            hit = cache.get(gens[0].key)
            assert hit is not None and hit.cached
            found = cache.get_many([g.key for g in gens])
            assert set(found) == {g.key for g in gens[:3]}
            assert all(g.cached for g in found.values())
            assert gens[2].key in cache and gens[3].key not in cache
            assert len(cache) == 3
            stats = cache.stats()
        assert stats["backend"] == "remote"
        assert (stats["hits"], stats["misses"], stats["puts"]) == (4, 2, 3)
        assert stats["entries"] == 3


class TestRemoteManifests:
    def test_unknown_run_and_empty_store_answer_none(self, server):
        with server.client() as remote:
            assert remote.manifest("run-does-not-exist") is None
            assert remote.latest_manifest() is None
            assert remote.latest_manifest("0" * 64) is None
            assert remote.manifests() == []

    def test_latest_manifest_filters_by_plan_fingerprint(self, server):
        from repro.core.experiments.configuration import configuration_task

        first, second = Plan("fingerprint-a"), Plan("fingerprint-b")
        first.add_eval(configuration_task("adios2"), "sim/o3", epochs=1)
        second.add_eval(configuration_task("wilkins"), "sim/o3", epochs=1)
        with server.client() as remote:
            a = run(first, store=remote).manifest
            b = run(second, store=remote).manifest
            assert a.plan_fingerprint != b.plan_fingerprint
            assert remote.latest_manifest().run_id == b.run_id
            assert remote.latest_manifest(a.plan_fingerprint).run_id == a.run_id
            assert remote.manifest(a.run_id) == a

    def test_malformed_manifest_refused_at_the_wire(self, server):
        with server.client() as remote:
            with pytest.raises(StoreError):
                remote.client.request(
                    {"op": "put_manifest", "manifest": {"run_id": "x"}}
                )
            assert remote.manifests() == []
            assert remote.stats().manifests == 0
