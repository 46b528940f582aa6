"""Tests for the ASYNC-HAZARD concurrency lint.

Seeded fixtures pin each rule's detection (with file/line/rule), the
innermost-def attribution policy, and - the real prize - that the
shipped service tree itself verifies clean.
"""

from pathlib import Path

import pytest

from repro.analyze.framework import AnalysisContext
from repro.analyze.passes import async_hazard

ROOT = Path(__file__).resolve().parent.parent


def check(tmp_path, source, name="svc.py"):
    path = tmp_path / name
    path.write_text(source)
    return async_hazard.check_file(path, name)


class TestBlockingCall:
    def test_time_sleep_in_async_def(self, tmp_path):
        findings = check(tmp_path, (
            "import time\n"
            "async def worker():\n"
            "    time.sleep(1)\n"))
        (finding,) = findings
        assert finding.rule == "ASYNC-BLOCKING-CALL"
        assert finding.path == "svc.py"
        assert finding.line == 3
        assert "time.sleep" in finding.message

    @pytest.mark.parametrize("call", [
        "open('x')",
        "json.dump({}, fh)",
        "subprocess.run(['ls'])",
        "os.makedirs('d')",
        "path.write_text('x')",
        "self.store.put(key, value)",
        "self.store.evict_expired()",
    ])
    def test_blocking_shapes(self, tmp_path, call):
        findings = check(tmp_path, (
            "import json, os, subprocess\n"
            "async def worker(self, path, fh, key, value):\n"
            f"    {call}\n"))
        assert [f.rule for f in findings] == ["ASYNC-BLOCKING-CALL"]
        assert findings[0].line == 3

    def test_sync_def_not_flagged(self, tmp_path):
        assert check(tmp_path, (
            "import time\n"
            "def worker():\n"
            "    time.sleep(1)\n")) == []

    def test_innermost_def_attribution(self, tmp_path):
        # A sync helper nested in an async def does not stall the loop
        # when *defined*; an async def nested in a sync def does when
        # it runs.
        assert check(tmp_path, (
            "import time\n"
            "async def worker():\n"
            "    def helper():\n"
            "        time.sleep(1)\n"
            "    return helper\n")) == []
        findings = check(tmp_path, (
            "import time\n"
            "def factory():\n"
            "    async def worker():\n"
            "        time.sleep(1)\n"
            "    return worker\n"))
        assert [f.rule for f in findings] == ["ASYNC-BLOCKING-CALL"]
        assert findings[0].line == 4

    def test_executor_routing_not_flagged(self, tmp_path):
        assert check(tmp_path, (
            "import asyncio\n"
            "async def worker(self, key, value):\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(\n"
            "        None, self.store.put, key, value)\n")) == []


class TestSyncHttp:
    """Synchronous HTTP in async context (the fleet worker's lease
    and report paths must use the async netio client)."""

    @pytest.mark.parametrize("call", [
        "http.client.HTTPConnection('h', 80)",
        "http.client.HTTPSConnection('h')",
        "HTTPConnection('h', 80)",
        "urllib.request.urlopen('http://h')",
        "urlopen('http://h')",
    ])
    def test_sync_http_in_async_def(self, tmp_path, call):
        findings = check(tmp_path, (
            "import http.client, urllib.request\n"
            "from http.client import HTTPConnection\n"
            "from urllib.request import urlopen\n"
            "async def probe():\n"
            f"    {call}\n"))
        assert [f.rule for f in findings] == ["ASYNC-BLOCKING-CALL"]
        assert findings[0].line == 5
        assert "synchronous HTTP" in findings[0].message

    def test_sync_http_in_sync_def_not_flagged(self, tmp_path):
        # The worker harness and blocking clients legitimately use
        # http.client from plain threads.
        assert check(tmp_path, (
            "import http.client\n"
            "def probe():\n"
            "    http.client.HTTPConnection('h', 80)\n")) == []

    def test_unrelated_receiver_not_flagged(self, tmp_path):
        # `urlopen`/connection names on a non-HTTP receiver chain are
        # somebody else's API.
        assert check(tmp_path, (
            "async def probe(self):\n"
            "    self.pool.urlopen('GET')\n")) == []


class TestLockedAwait:
    def test_await_under_sync_lock(self, tmp_path):
        findings = check(tmp_path, (
            "async def worker(self):\n"
            "    with self._lock:\n"
            "        await self.flush()\n"))
        (finding,) = findings
        assert finding.rule == "ASYNC-LOCKED-AWAIT"
        assert finding.line == 3

    def test_async_lock_not_flagged(self, tmp_path):
        assert check(tmp_path, (
            "async def worker(self):\n"
            "    async with self._lock:\n"
            "        await self.flush()\n")) == []

    def test_sync_with_without_await_not_flagged(self, tmp_path):
        assert check(tmp_path, (
            "async def worker(self):\n"
            "    with self._lock:\n"
            "        self.count += 1\n")) == []


class TestSharedState:
    FIXTURE = (
        "import asyncio\n"
        "class Scheduler:\n"
        "    async def start(self):\n"
        "        self.running = 0\n"
        "        loop = asyncio.get_running_loop()\n"
        "        await loop.run_in_executor(None, self._work)\n"
        "    def _work(self):\n"
        "        self.running = 1\n")

    def test_write_from_both_contexts(self, tmp_path):
        findings = check(tmp_path, self.FIXTURE)
        (finding,) = findings
        assert finding.rule == "ASYNC-SHARED-STATE"
        assert finding.line == 8
        assert "self.running" in finding.message
        assert "_work" in finding.message

    def test_unregistered_method_not_flagged(self, tmp_path):
        source = self.FIXTURE.replace(
            "await loop.run_in_executor(None, self._work)\n",
            "pass\n")
        assert check(tmp_path, source) == []

    def test_thread_target_counts_as_callback(self, tmp_path):
        source = self.FIXTURE.replace(
            "loop = asyncio.get_running_loop()\n"
            "        await loop.run_in_executor(None, self._work)\n",
            "import threading\n"
            "        threading.Thread(target=self._work).start()\n")
        findings = check(tmp_path, source)
        assert [f.rule for f in findings] == ["ASYNC-SHARED-STATE"]


class TestServiceTree:
    def test_shipped_service_and_fleet_are_clean(self):
        context = AnalysisContext(root=ROOT)
        assert async_hazard.run_async_hazard(context) == []

    def test_default_targets_cover_the_fleet_tree(self, tmp_path):
        fleet = tmp_path / "src" / "repro" / "fleet"
        fleet.mkdir(parents=True)
        (fleet / "coordinator.py").write_text(
            "import time\n"
            "async def lease():\n"
            "    time.sleep(1)\n")
        context = AnalysisContext(root=tmp_path)
        findings = async_hazard.run_async_hazard(context)
        assert [f.rule for f in findings] == ["ASYNC-BLOCKING-CALL"]

    def test_pass_targets_explicit_paths(self, tmp_path):
        bad = tmp_path / "svc.py"
        bad.write_text("import time\n"
                       "async def worker():\n"
                       "    time.sleep(1)\n")
        context = AnalysisContext(root=tmp_path, paths=(bad,))
        findings = async_hazard.run_async_hazard(context)
        assert [f.rule for f in findings] == ["ASYNC-BLOCKING-CALL"]
        assert findings[0].path == "svc.py"
