#!/usr/bin/env python3
"""End-to-end benchmark of ticl_served.

Builds the program and the benchmark's own tool from this checkout,
generates the workload's inputs from --seed, ingests them with ticl_query,
serves them with ticl_served on an ephemeral loopback port, drives it with
the compiled closed-loop client, checks every recorded reply
independently, and prints one JSON result line.

    python3 e2e_bench/run.py --workload solve-mix --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(same wire run, then in-process timings of each layer). See README.md.

Exit status: 0 with a result line; 1 when an output check failed (the
result line then says "correct": false); 2 when the benchmark could not
run at all (nothing printed on stdout).
"""

import argparse
import json
import os
import queue
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
TOOL = os.path.join(CMAKE_DIR, "e2e_tool")
TICL_QUERY = os.path.join(CMAKE_DIR, "ticl", "ticl_query")
TICL_SERVED = os.path.join(CMAKE_DIR, "ticl", "ticl_served")

# Two workers plus at most two client connections fit on four cores.
SERVER_THREADS = "2"
# Engine counters read from the stats replies around the timed phase.
STAT_COUNTERS = {
    "serve.engine.cache_hits": "cache_hits",
    "serve.engine.cache_misses": "cache_misses",
    "serve.engine.cache_uncacheable": "cache_uncacheable",
    "serve.engine.partial_kept": "cache_partial_kept",
    "serve.engine.partial_evicted": "cache_partial_evicted",
}


class BenchError(Exception):
    """The benchmark could not run (build, start-up or I/O failure)."""


def log(message):
    print(f"[e2e_bench] {message}", file=sys.stderr, flush=True)


def child_env():
    """Children keep their temporary files (the compiler's too) inside
    the checkout."""
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_checked(args, timeout, capture=True):
    """Runs a child to completion (killed and reaped on timeout)."""
    try:
        done = subprocess.run(
            args, cwd=ROOT, timeout=timeout, text=True, env=child_env(),
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(args[0])} timed out") from exc
    if done.returncode != 0:
        raise BenchError(
            f"{' '.join(os.path.basename(a) for a in args[:2])} exited "
            f"{done.returncode}")
    return done.stdout


def check_checkout():
    needed = ["CMakeLists.txt", "src/serve/server.cc", "tools/ticl_served.cc",
              "tools/ticl_query.cc"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not inside a TICL checkout (missing "
                         + ", ".join(missing) + ")")


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator, 600,
                    capture=False)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", CMAKE_DIR, "-j", jobs], 840,
                capture=False)


def tool(command, workload, seed, run_dir, *extra, timeout=120):
    out = run_checked([TOOL, command, "--workload", workload, "--seed",
                       str(seed), "--dir", run_dir, *extra], timeout)
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Server:
    """One ticl_served child: ephemeral port, drained and reaped on exit."""

    def __init__(self, snapshot, flags):
        args = [TICL_SERVED, "--snapshot", snapshot, "--mmap", "--port", "0",
                "--threads", SERVER_THREADS, *flags]
        self.proc = subprocess.Popen(args, cwd=ROOT, text=True, env=child_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        self.lines = queue.Queue()
        self.stderr = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.port = None

    def _read(self):
        for line in self.proc.stderr:
            self.stderr.append(line.rstrip("\n"))
            self.lines.put(line)
        self.lines.put(None)

    def wait_listening(self, timeout=60.0):
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("ticl_served did not start listening")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError("ticl_served exited during start-up: "
                                 + " | ".join(self.stderr))
            if line.startswith("listening on "):
                address = line.split()[2]
                self.port = int(address.rsplit(":", 1)[1])
                return

    def request(self, line, timeout=30.0):
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=timeout) as sock:
            sock.sendall(line.encode() + b"\n")
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        return reply.decode()

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for ticl_served")

    def drain(self):
        """Graceful drain; the server must exit 0."""
        reply = self.request('{"id": "drain", "admin": "drain"}')
        if '"ok": true' not in reply:
            raise BenchError("drain refused: " + reply.strip())
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("ticl_served did not exit after drain") from exc
        self.reader.join(timeout=10)
        if code != 0:
            raise BenchError(f"ticl_served exited {code} after drain")

    def stop(self):
        """Last resort on failure paths: SIGTERM, then SIGKILL; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)


def parse_stats(run_dir):
    stats = {}
    with open(os.path.join(run_dir, "stats.txt")) as f:
        for line in f:
            label, reply = line.rstrip("\n").split("\t", 1)
            stats[label] = json.loads(reply)
    return stats


def run(workload, seed, seconds, trace):
    run_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    server = None
    try:
        flags = tool("gen-graph", workload, seed, run_dir)["server_flags"]
        snapshot = os.path.join(run_dir, "base.snap")

        # Set-up: edge list -> ingest (parse, PageRank, core index,
        # snapshot write) -> server start -> first ping answered.
        start = time.perf_counter()
        run_checked([TICL_QUERY, "--graph", os.path.join(run_dir, "graph.txt"),
                     "--save-snapshot", snapshot, "--snapshot-index"], 120)
        ingested = time.perf_counter()
        server = Server(snapshot, flags)
        server.wait_listening()
        if '"ok": true' not in server.request('{"id": 0, "admin": "ping"}'):
            raise BenchError("ping failed")
        setup_s = time.perf_counter() - start

        tool("gen-chain", workload, seed, run_dir)
        load = tool("load", workload, seed, run_dir, "--port",
                    str(server.port), "--seconds", str(seconds),
                    timeout=seconds + 150)
        # The tail is logged, not reported: it is not steady enough on a
        # shared 4-core machine to carry a bound (see README.md).
        log(f"p99_ms {load['p99_ms']:.4f} over {load['timed_queries']} "
            f"timed queries")
        rss_mb = server.peak_rss_mb()
        server.drain()
        server = None

        try:
            tool("check", workload, seed, run_dir, timeout=150)
            correct = True
        except BenchError as exc:
            log(f"output check failed: {exc}")
            correct = False

        if trace:
            layers = tool("trace", workload, seed, run_dir, timeout=150)
            stats = parse_stats(run_dir)
            metrics = {
                "tools.ingest_s": (ingested - start, "s"),
                "tools.open_s": (start + setup_s - ingested, "s"),
                "serve.server.wire_us": (
                    load["p50_ms"] * 1e3 - layers["serve.engine.hit_us"]
                    - layers["serve.protocol.format_us"], "us"),
                "serve.server.apply_rtt_ms": (load["apply_p50_ms"], "ms"),
            }
            for name, key in STAT_COUNTERS.items():
                metrics[name] = (stats["timed"]["engine"][key]
                                 - stats["before"]["engine"][key], "count")
            for name, value in layers.items():
                metrics[name] = (value, unit_of(name))
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "qps": (load["qps"], "1/s"),
                "p50_ms": (load["p50_ms"], "ms"),
                "server_rss_mb": (rss_mb, "MB"),
            }
        return {
            "correct": correct,
            "attempted": load["attempted"],
            "failed": load["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def unit_of(name):
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_kb", "KB")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A driver's SIGTERM unwinds through the finally blocks, so the
    # server is still drained or killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        check_checkout()
        build()
        result = run(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
