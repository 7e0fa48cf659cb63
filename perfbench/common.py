"""Shared plumbing: paths, the paper network, server processes, results.

The benchmark runs from the root of a source checkout and imports the
program from its ``src`` directory; it reads and writes nothing outside
that checkout.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

#: The paper's Random network: Waxman, 100 nodes, 10 Mb/s links.  The
#: topology seed is fixed (not the workload seed) so every run sees the
#: same 354-edge graph and only the request stream varies with --seed.
TOPOLOGY_SEED = 53
TOPOLOGY_ARG = f"waxman:nodes=100,edges=354,capacity=10000,seed={TOPOLOGY_SEED}"
NUM_NODES = 100
NUM_EDGES = 354
#: The seed ``run.py`` uses when none is given; its digests are pinned.
DEFAULT_SEED = 1


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def topology_spec() -> Any:
    from repro.service.wal import parse_topology_arg

    return parse_topology_arg(TOPOLOGY_ARG)


def paper_links() -> List[Any]:
    """Link ids of the paper network, the generator's fail/repair targets."""
    return [tuple(lid) for lid in topology_spec().build().link_ids()]


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a running child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


def process_cpu_clock(pid: int) -> Callable[[], float]:
    """Reader of another process's CPU clock, in seconds (all its threads).

    The clock advances only while the process runs: not while it sleeps
    or waits for a wake-up or for the disk, nor, on a Linux guest with
    paravirtual steal-time accounting, while the host runs another guest
    on its vCPU.  On a shared host it is far steadier than wall time for
    short requests.
    """
    libc = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)
    clock_id = ctypes.c_int()
    if libc.clock_getcpuclockid(pid, ctypes.byref(clock_id)) != 0:
        raise CheckFailed(f"no CPU clock for process {pid}")
    clock = clock_id.value
    return lambda: time.clock_gettime(clock)


def flip_one_event(wal: Path) -> None:
    """Known-bad fixture: re-point the first logged establish at another
    node, keeping the record's CRC valid so only replay can tell."""
    from repro.service.wal import decode_record, encode_record

    lines = wal.read_bytes().splitlines()
    for index, line in enumerate(lines):
        record = decode_record(line)
        if record.get("op") == "establish":
            record["dst"] = (record["dst"] + 1) % NUM_NODES
            if record["dst"] == record["src"]:
                record["dst"] = (record["dst"] + 1) % NUM_NODES
            lines[index] = encode_record(record).rstrip(b"\n")
            break
    wal.write_bytes(b"\n".join(lines) + b"\n")


# ----------------------------------------------------------------------
# server processes
# ----------------------------------------------------------------------
def serve_argv(wal: Path, spans: Optional[Path] = None) -> List[str]:
    """``repro serve`` on the paper network; traced through the launcher
    when ``spans`` names the file the spans go to."""
    args = ["serve", "--topology", TOPOLOGY_ARG, "--wal", str(wal), "--port", "0"]
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans), *args]


@dataclass
class Server:
    """A spawned ``repro serve`` process and its startup banner."""

    proc: "subprocess.Popen[str]"
    banner: Dict[str, Any]
    ready_s: float
    drained: Dict[str, Any] = field(default_factory=dict)

    @property
    def port(self) -> int:
        return int(self.banner["port"])

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(self.proc.pid)

    def drain(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """SIGTERM, wait for exit, return the ``drained`` banner."""
        from repro.service.procs import drain_stdout, wait_exit

        self.proc.send_signal(signal.SIGTERM)
        code = wait_exit(self.proc, timeout_s)
        events = drain_stdout(self.proc)
        _close_pipes(self.proc)
        check(code == 0, f"server exited with code {code} on drain")
        drained = [e for e in events if e.get("event") == "drained"]
        check(len(drained) == 1, f"server printed no drained banner: {events}")
        self.drained = drained[0]
        return self.drained

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        _close_pipes(self.proc)


class Conn:
    """Blocking JSON-per-line connection to a server."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def rpc(self, obj: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n")
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _close_pipes(proc: "subprocess.Popen[str]") -> None:
    for pipe in (proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


def start_server(argv: Sequence[str], hash_seed: int, timeout_s: float = 120.0) -> Server:
    """Spawn a server with ``PYTHONHASHSEED=hash_seed`` and wait for its
    ``listening`` banner."""
    from repro.service.procs import read_banner, spawn_server

    saved = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = str(hash_seed)
    try:
        t0 = time.perf_counter()
        proc = spawn_server(argv)
    finally:
        if saved is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = saved
    try:
        banner = read_banner(proc, timeout_s)
    except BaseException:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _close_pipes(proc)
        raise
    return Server(proc, banner, time.perf_counter() - t0)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""


def emit(
    workload: str,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Metric],
    notes: Sequence[str] = (),
) -> None:
    """Print one line per metric and note, then the result object last."""
    for name, metric in metrics.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"{workload}  {name} = {metric.value:.6g} {metric.unit}{note}")
    for note in notes:
        print(f"{workload}  {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
