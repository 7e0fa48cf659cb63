"""In-process asyncio server: framing, backpressure, deadlines, drain."""

import asyncio


from repro.parallel.jobs import TopologySpec
from repro.service.engine import EngineConfig
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.protocol import decode_line, encode_line
from repro.service.replay import replay_log
from repro.service.server import AdmissionService, ServiceConfig
from repro.service.shedding import BackpressureConfig

GRID = TopologySpec(kind="grid", capacity=1000.0, seed=0, nodes=4, cols=4)

QOS = {"b_min": 100.0, "b_max": 300.0, "increment": 100.0, "utility": 1.0,
       "backups": 1}


def _config(**kwargs):
    return ServiceConfig(topology=GRID, **kwargs)


async def _rpc(port, obj):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_line(obj))
        await writer.drain()
        return decode_line(await reader.readline())
    finally:
        writer.close()


def _run(coro):
    return asyncio.run(coro)


class TestBasicServing:
    def test_establish_query_teardown(self):
        async def scenario():
            service = AdmissionService(_config())
            await service.start()
            port = service.port
            resp = await _rpc(port, {
                "op": "establish", "id": 1, "src": 0, "dst": 15, "qos": QOS,
            })
            assert resp["ok"] and resp["result"]["accepted"]
            cid = resp["result"]["conn_id"]
            conn = await _rpc(port, {
                "op": "query", "id": 2, "what": "connection", "conn_id": cid,
            })
            assert conn["ok"] and conn["result"]["bandwidth"] >= 100.0
            down = await _rpc(port, {"op": "teardown", "id": 3, "conn_id": cid})
            assert down["ok"]
            health = await _rpc(port, {"op": "query", "id": 4, "what": "health"})
            assert health["ok"] and health["result"]["seq"] == 2
            service.initiate_drain()
            await service.drained()

        _run(scenario())

    def test_bad_frames_answered_not_fatal(self):
        async def scenario():
            service = AdmissionService(_config())
            await service.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
            writer.write(b"{not json\n")
            await writer.drain()
            resp = decode_line(await reader.readline())
            assert resp["error"] == "bad-request"
            # Same connection still serves valid frames.
            writer.write(encode_line({"op": "query", "id": 1, "what": "health"}))
            await writer.drain()
            assert decode_line(await reader.readline())["ok"]
            writer.close()
            service.initiate_drain()
            await service.drained()

        _run(scenario())

    def test_stats_include_service_plane(self):
        async def scenario():
            service = AdmissionService(_config())
            await service.start()
            stats = await _rpc(service.port, {"op": "query", "id": 1, "what": "stats"})
            assert stats["ok"]
            svc = stats["result"]["service"]
            assert set(svc) >= {"queue_depth", "shed", "expired", "draining",
                                "recovered", "latency"}
            service.initiate_drain()
            await service.drained()

        _run(scenario())


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self):
        async def scenario():
            service = AdmissionService(_config(
                backpressure=BackpressureConfig(queue_limit=1, shed_watermark=1.0),
            ))
            await service.start()
            # Pause the batcher so the queue stays visibly full, then
            # stuff the single slot; the next arrival must be shed.
            service._batcher.cancel()
            await asyncio.sleep(0)
            from repro.service.protocol import Request
            from repro.service.server import _Pending
            loop = asyncio.get_running_loop()
            service._queue.put_nowait(_Pending(
                Request(op="teardown", req_id=99, conn_id=0),
                None, loop.time(), loop.create_future(),
            ))
            resp = await _rpc(service.port, {
                "op": "establish", "id": 1, "src": 0, "dst": 1, "qos": QOS,
            })
            assert resp["error"] == "shed"
            assert resp["retry_after"] > 0
            assert service.shed_count == 1
            # Resume the batcher so the drain completes normally.
            service._batcher = asyncio.create_task(service._batch_loop())
            service.initiate_drain()
            await service.drained()

        _run(scenario())


class TestDeadlines:
    def test_expired_request_gets_deadline_error(self):
        async def scenario():
            from repro.service.protocol import Request
            from repro.service.server import _Pending
            service = AdmissionService(_config())
            await service.start()
            loop = asyncio.get_running_loop()
            # A request whose deadline already lapsed while queued.
            stale = _Pending(
                Request(op="establish", req_id=7, src=0, dst=15, what=""),
                loop.time() - 1.0, loop.time() - 2.0, loop.create_future(),
            )
            service._queue.put_nowait(stale)
            response = await stale.future
            assert response["error"] == "deadline"
            assert service.expired_count == 1
            # The expired request never reached the engine.
            assert service.engine.seq == 0
            service.initiate_drain()
            await service.drained()

        _run(scenario())

    def test_default_deadline_applied(self):
        async def scenario():
            service = AdmissionService(_config(default_deadline_ms=10_000.0))
            await service.start()
            resp = await _rpc(service.port, {
                "op": "establish", "id": 1, "src": 0, "dst": 15, "qos": QOS,
            })
            assert resp["ok"]
            service.initiate_drain()
            await service.drained()

        _run(scenario())


class TestDrain:
    def test_drain_rejects_new_work_and_logs_shutdown(self, tmp_path):
        wal = tmp_path / "wal.log"

        async def scenario():
            service = AdmissionService(_config(wal_path=str(wal)))
            await service.start()
            port = service.port
            resp = await _rpc(port, {
                "op": "establish", "id": 1, "src": 0, "dst": 15, "qos": QOS,
            })
            assert resp["ok"]
            # Open a connection *before* the listener closes.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            service.initiate_drain()
            writer.write(encode_line({"op": "teardown", "id": 2, "conn_id": 0}))
            await writer.drain()
            refused = decode_line(await reader.readline())
            assert refused["error"] == "shutting-down"
            writer.write(encode_line({"op": "query", "id": 3, "what": "ready"}))
            await writer.drain()
            ready = decode_line(await reader.readline())
            assert ready["error"] == "shutting-down"
            writer.close()
            await service.drained()
            return service.engine.digest()

        digest = _run(scenario())
        result = replay_log(wal)
        assert result.clean_shutdown
        assert result.digest == digest


class TestLoadgenAgainstServer:
    def test_small_campaign_end_to_end(self, tmp_path):
        wal = tmp_path / "wal.log"

        async def scenario():
            service = AdmissionService(_config(
                wal_path=str(wal),
                engine=EngineConfig(batch_max=16),
            ))
            await service.start()
            report = await run_loadgen(LoadgenConfig(
                port=service.port, total_requests=200, concurrency=4, seed=3,
            ))
            service.initiate_drain()
            await service.drained()
            return service.engine.digest(), report

        digest, report = _run(scenario())
        assert report.sent == 200
        assert report.errors == 0
        assert report.accepted > 0 and report.torn_down > 0
        summary = report.latency_summary()
        assert summary["p99_us"] >= summary["p50_us"] > 0
        # The WAL of the noisy concurrent run still replays bitwise.
        assert replay_log(wal).digest == digest
