"""The ``serve-open`` workload: open-loop load against a ``repro serve``
daemon subprocess.

One client process sends seeded Poisson single-instance
``POST /workflows`` at a fixed ladder of rates.  Reads run beside the
writes on the same connection slot: a ``repro top``-style poll of
``GET /metrics`` and ``GET /instances`` once per second, and
``GET /instances/<id>`` for a seeded sample of finished instances.
Completions arrive on one ``GET /events`` firehose connection, so at most
two connections (the host's two cores) are open at once.

Latency runs from each submission's *due* time to the arrival of its
``workflow.commit``/``workflow.aborted`` event, so a stalled generator
charges its lateness to every request it delays.
"""

from __future__ import annotations

import collections
import functools
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

import layers
import perlayer
from common import (
    ARCHITECTURES,
    REF_CAL_S,
    ROOT,
    SRC,
    Outcome,
    calibration_s,
    median,
    out_dir,
    percentile,
    write_report,
)

HOST = "127.0.0.1"
#: One simulated network hop costs 1 ms on the daemon's wall clock.
LATENCY_S = 0.001
#: The ladder the knee search bisects; the same on every commit.  Rungs
#: are at most 10% apart from 90/s up; the knee lay between 120/s and
#: 234/s on a 2-core host.  LOW_RATE and HIGH_RATE are rungs too.
LADDER = (30, 45, 60, 75, 90, 99, 109, 120, 132, 145, 160, 176, 193, 213,
          234, 257)
LOW_RATE = 45      # about a quarter of the knee
HIGH_RATE = 90     # about half the knee
#: A rung passes when its p99 stays within this limit (about 3x the
#: low-rate p50 of ~100 ms), its backlog does not grow (the mean in-flight
#: count of its last third stays within 1.3x the middle third's, plus 5),
#: and nothing fails.
LATENCY_LIMIT_MS = 300.0
#: A timed run makes LATENCY_TRIALS trials at each of the low and high
#: rates, each on a fresh daemon, sending for ``--seconds`` / 8.  A stall
#: of the host alone can spoil a trial, and such stalls only ever make
#: latency worse, so a rate's p99 is that of its least-disturbed trial
#: (its p50 is over all its trials).
LATENCY_TRIALS = 3
LATENCY_TRIAL_SHARE = 1 / 8
#: The traced run also searches for the knee: at most KNEE_TRIALS trials
#: of ``--seconds`` / 12, enough to bisect the ladder with two trials per
#: candidate.  Near the knee one such trial passes or fails almost at
#: random on a shared host, so a candidate passes only when both of its
#: trials pass.  Even so the knee ranged over three rungs from one run to
#: the next, which is why it is a traced-run metric without a bound.
KNEE_TRIALS = 8
KNEE_TRIAL_SHARE = 1 / 12
#: Share of finished instances whose status the client reads back.
READ_SHARE = 0.1
POLL_INTERVAL_S = 1.0
#: The per-architecture throughput probe: BATCHES submissions of BATCH
#: instances each, one after another, on one daemon.  Each is timed in
#: the daemon's CPU seconds, scaled to the reference host speed like the
#: simulated workloads' timings; the rate is over all of them, since one
#: batch's CPU time varies by about 20% from one batch to the next.
BATCH = 200
BATCHES = 7
WARM_UP = 50
SETTLE_S = 0.05
SETUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0


def orders_laws() -> str:
    """The Orders workflow with its ``order`` spec removed."""
    text = (ROOT / "examples" / "order_fulfilment.laws").read_text(
        encoding="utf-8")
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("order "))


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str,
            body: dict[str, Any] | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection; ``(status, body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {} if data is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """A ``repro serve`` subprocess on a free port with a fresh state dir.

    ``spans`` names the span file of a traced daemon, which is started
    through ``serve_launcher.py``.
    """

    _count = 0

    def __init__(self, architecture: str = "centralized",
                 spans: str | None = None) -> None:
        Daemon._count += 1
        self.architecture = architecture
        self.port = free_port()
        self.state_dir = out_dir() / f"serve-{os.getpid()}-{Daemon._count}"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        serve = ["serve", "--host", HOST, "--port", str(self.port),
                 "--architecture", architecture, "--latency", str(LATENCY_S),
                 "--state-dir", str(self.state_dir)]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable,
                       str(ROOT / "perfbench" / "serve_launcher.py"), spans,
                       *serve]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(self.state_dir / "daemon.log", "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, env=env,
                                        stdout=self._log,
                                        stderr=subprocess.STDOUT)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + SETUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}"
                                   f" before /readyz; see {self.state_dir}")
            try:
                if request(self.port, "GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("daemon not ready within "
                           f"{SETUP_TIMEOUT_S:.0f}s")

    def _proc(self, name: str) -> str:
        with open(f"/proc/{self.process.pid}/{name}", encoding="ascii") as fh:
            return fh.read()

    def vm_hwm_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """CPU seconds of the daemon's live threads, to the nanosecond
        (``/proc/<pid>/stat`` counts 10 ms ticks)."""
        total = 0
        for task in os.listdir(f"/proc/{self.process.pid}/task"):
            try:
                with open(f"/proc/{self.process.pid}/task/{task}/schedstat",
                          encoding="ascii") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:
                pass
        return total / 1e9

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit status."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                return -9
        finally:
            self._log.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


class Firehose(threading.Thread):
    """Reads ``GET /events`` and timestamps every instance outcome."""

    MARKERS = (b'"workflow.commit"', b'"workflow.aborted"')

    def __init__(self, port: int | None) -> None:
        super().__init__(daemon=True)
        self.sock = None
        if port is not None:
            self.sock = socket.create_connection((HOST, port))
            self.sock.sendall(b"GET /events HTTP/1.1\r\nHost: bench\r\n\r\n")
        self.finished: dict[str, float] = {}
        self.duplicates: list[str] = []
        self.watch: set[str] = set()
        self.sampled_done: collections.deque[tuple[str, float]] = (
            collections.deque())
        self._buffer = b""

    def feed(self, chunk: bytes, now: float) -> None:
        """Consume stream bytes; outcome events are stamped ``now``."""
        *lines, self._buffer = (self._buffer + chunk).split(b"\n")
        for line in lines:
            if not any(marker in line for marker in self.MARKERS):
                continue
            instance = json.loads(line)["instance"]
            if instance in self.finished:
                self.duplicates.append(instance)
                continue
            self.finished[instance] = now
            if instance in self.watch:
                self.sampled_done.append((instance, now))

    def run(self) -> None:
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    return
                self.feed(chunk, time.perf_counter())
        except OSError:
            return

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.join(timeout=10)


def audit_outcomes(expected: set[str], firehose: Firehose
                   ) -> tuple[int, list[str]]:
    """Failed outcomes: expected ids that never finished on the firehose,
    and duplicate outcome events."""
    missing = sorted(i for i in expected if i not in firehose.finished)
    duplicates = firehose.duplicates
    errors = []
    if missing:
        errors.append(f"{len(missing)} acknowledged instances never "
                      f"finished on the firehose (e.g. {missing[0]})")
    if duplicates:
        errors.append(f"{len(duplicates)} duplicate outcome events "
                      f"(e.g. {duplicates[0]})")
    return len(missing) + len(duplicates), errors


@dataclass
class Traffic:
    """Client-side record of everything one daemon was sent."""

    acked: dict[str, float] = field(default_factory=dict)  # id -> due time
    failed: int = 0
    attempted: int = 0
    rejected: int = 0
    non2xx: int = 0
    late_s: list[float] = field(default_factory=list)
    http_ms: dict[str, list[float]] = field(
        default_factory=lambda: collections.defaultdict(list))
    healthz_ms: list[float] = field(default_factory=list)


@dataclass
class Rung:
    rate: float
    latencies_ms: list[float]
    failed: int
    growing: bool

    @property
    def p50(self) -> float:
        return median(self.latencies_ms) if self.latencies_ms else float("inf")

    @property
    def p99(self) -> float:
        return (percentile(self.latencies_ms, 99) if self.latencies_ms
                else float("inf"))

    @property
    def passed(self) -> bool:
        return (not self.failed and not self.growing
                and self.p99 <= LATENCY_LIMIT_MS)


class Client:
    """The open-loop generator bound to one daemon."""

    def __init__(self, daemon: Daemon, rng: random.Random,
                 poll_healthz: bool = False) -> None:
        self.daemon = daemon
        self.rng = rng
        self.poll_healthz = poll_healthz
        self.traffic = Traffic()
        self.firehose = Firehose(daemon.port)
        self.firehose.start()
        self.install_id: str | None = None

    def call(self, kind: str, method: str, path: str,
             body: dict[str, Any] | None = None) -> tuple[int, bytes] | None:
        """One timed request; failures are counted, ``None`` returned."""
        self.traffic.attempted += 1
        started = time.perf_counter()
        try:
            status, payload = request(self.daemon.port, method, path, body)
        except OSError:
            self.traffic.failed += 1
            return None
        self.traffic.http_ms[kind].append(1e3 * (time.perf_counter() - started))
        if status in (429, 503):
            self.traffic.rejected += 1
        if not 200 <= status < 300:
            self.traffic.non2xx += 1
            self.traffic.failed += 1
            return None
        return status, payload

    def install(self) -> None:
        """Install Orders (the document's ``order`` line removed)."""
        reply = self.call("post_workflows", "POST", "/workflows", {
            "laws": orders_laws(), "inputs": {"part": "setup", "qty": 1}})
        if reply is None:
            raise RuntimeError("installing the Orders workflow failed")
        self.install_id = json.loads(reply[1])["instances"][0]

    def _inputs(self) -> dict[str, Any]:
        return {"part": f"part-{self.rng.randrange(8)}",
                "qty": self.rng.randint(1, 20)}

    def rung(self, rate: float, seconds: float) -> Rung:
        """Send Poisson arrivals at ``rate`` for ``seconds``, then drain."""
        rng, traffic, firehose = self.rng, self.traffic, self.firehose
        start = time.perf_counter() + 0.02
        dues, at = [], rng.expovariate(rate)
        while at < seconds:
            dues.append(start + at)
            at += rng.expovariate(rate)
        next_poll = start
        mine: list[str] = []
        backlog: list[int] = []
        failed_before = traffic.failed
        lost_posts = 0
        index = 0
        while index < len(dues):
            if firehose.sampled_done:
                instance, __ = firehose.sampled_done.popleft()
                self.call("get_instance", "GET", f"/instances/{instance}")
                continue
            if next_poll <= dues[index]:
                self._wait(next_poll)
                self.call("get_metrics", "GET", "/metrics")
                self.call("get_instances", "GET", "/instances")
                if self.poll_healthz:
                    self._healthz()
                next_poll += POLL_INTERVAL_S
                continue
            due = dues[index]
            self._wait(due)
            traffic.late_s.append(time.perf_counter() - due)
            sampled = rng.random() < READ_SHARE
            reply = self.call("post_workflows", "POST", "/workflows",
                              {"workflow": "Orders", "inputs": self._inputs()})
            index += 1
            if reply is None:
                lost_posts += 1
            else:
                instance = json.loads(reply[1])["instances"][0]
                traffic.acked[instance] = due
                mine.append(instance)
                if sampled:
                    firehose.watch.add(instance)
            backlog.append(sum(1 for i in mine[-400:]
                               if i not in firehose.finished))
        self.drain(mine)
        latencies = [1e3 * (firehose.finished[i] - traffic.acked[i])
                     for i in mine if i in firehose.finished]
        failed = traffic.failed - failed_before + (len(mine) - len(latencies))
        # A failed submission misses the latency limit.
        latencies += [float("inf")] * lost_posts
        # The first third holds the ramp from an empty daemon; a backlog
        # growing linearly puts the last third's mean 5/3 of the middle's.
        third = len(backlog) // 3
        growing = third > 0 and (sum(backlog[-third:]) / third > 1.3 * sum(
            backlog[third:2 * third]) / third + 5)
        return Rung(rate, latencies, failed, growing)

    @staticmethod
    def _wait(due: float) -> None:
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)

    def _healthz(self) -> None:
        started = time.perf_counter()
        if self.call("get_healthz", "GET", "/healthz") is not None:
            self.traffic.healthz_ms.append(1e3 * (time.perf_counter() - started))

    def drain(self, ids: list[str]) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline:
            if all(i in self.firehose.finished for i in ids):
                return
            time.sleep(0.01)

    def batch(self, count: int) -> bool:
        """Submit ``count`` instances in one POST and wait for every
        outcome; False when one never finished."""
        started = time.perf_counter()
        reply = self.call("post_batch", "POST", "/workflows", {
            "workflow": "Orders", "instances": count,
            "inputs": {"part": "part-0", "qty": 5}})
        if reply is None:
            return False
        ids = json.loads(reply[1])["instances"]
        for instance in ids:
            self.traffic.acked[instance] = started
        self.drain(ids)
        return all(i in self.firehose.finished for i in ids)

    def audit(self) -> tuple[int, list[str]]:
        """Drain, then :func:`audit_outcomes` over every acknowledged id."""
        expected = set(self.traffic.acked)
        if self.install_id is not None:
            expected.add(self.install_id)
        self.drain(list(expected))
        return audit_outcomes(expected, self.firehose)

    def close(self) -> None:
        self.firehose.close()


def _boot(architecture: str, rng: random.Random, spans: str | None = None,
          poll_healthz: bool = False) -> tuple[Daemon, Client, float]:
    """Spawn, wait for /readyz, open the firehose, install; returns the
    daemon, its client and the set-up seconds, scaled to the reference
    host speed by calibration loops run before the spawn and after the
    install (start-up is CPU-bound: imports and the document compile)."""
    calibration = calibration_s()
    daemon = Daemon(architecture, spans)
    try:
        daemon.wait_ready()
        client = Client(daemon, rng, poll_healthz)
        client.install()
    except BaseException:
        daemon.stop()
        daemon.cleanup()
        raise
    wall = time.perf_counter() - daemon.started
    scale = REF_CAL_S / ((calibration + calibration_s()) / 2)
    return daemon, client, wall * scale


def _finish(out: Outcome, daemon: Daemon, client: Client) -> None:
    """Audit the outcomes, stop the daemon and check its exit status."""
    failed, errors = client.audit()
    for error in errors:
        out.check(False, f"{daemon.architecture} daemon: {error}")
    client.close()
    status = daemon.stop()
    out.check(status == 0, f"{daemon.architecture} daemon exited with "
                           f"{status} after SIGTERM")
    out.attempted += client.traffic.attempted
    out.failed += client.traffic.failed + failed
    daemon.cleanup()


def measure_rung(rate: float, seconds: float, rng: random.Random,
                 out: Outcome, setups: list[float]) -> tuple[Rung, float]:
    """One rung on a fresh daemon, so that no rung inherits another's
    history; returns the rung and the daemon's peak RSS at drain."""
    daemon, client, setup = _boot("centralized", rng)
    setups.append(setup)
    try:
        rung = client.rung(rate, seconds)
        rss = daemon.vm_hwm_mb()
    finally:
        _finish(out, daemon, client)
    return rung, rss


def knee_search(measured: list[Rung], trial_s: float, rng: random.Random,
                out: Outcome) -> tuple[float, list[Rung]]:
    """Bisect the ladder for its highest passing rung (0 when none
    passes), above the highest rate whose ``measured`` trials all passed;
    returns it and the trials run.  A candidate passes when both of two
    trials pass; a trial that fails, or a budget that runs out, ends it."""
    lo, hi = -1, len(LADDER)
    for rate in {rung.rate for rung in measured}:
        if all(rung.passed for rung in measured if rung.rate == rate):
            lo = max(lo, LADDER.index(rate))
    tried: list[Rung] = []
    while hi - lo > 1 and len(tried) < KNEE_TRIALS:
        mid = (lo + hi) // 2
        passed = True
        for __ in range(2):
            if len(tried) == KNEE_TRIALS:
                passed = False
                break
            rung = measure_rung(LADDER[mid], trial_s, rng, out, [])[0]
            tried.append(rung)
            if not rung.passed:
                passed = False
                break
        if passed:
            lo = mid
        else:
            hi = mid
    return (float(LADDER[lo]) if lo >= 0 else 0.0), tried


def calibration_on(cpus: set[int]) -> float:
    """One calibration loop with this thread held to ``cpus``."""
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return calibration_s()
    finally:
        os.sched_setaffinity(0, mine)


def batch_rate(architecture: str, rng: random.Random, out: Outcome,
               setups: list[float]) -> float:
    """Instances per scaled daemon CPU second on one daemon, over BATCHES
    batches after a warm-up batch of WARM_UP.

    The daemon is held to one CPU and each calibration loop runs on that
    CPU while the daemon idles, so that the loop sees the speed the
    daemon gets; a loop on another CPU of this host tracks it poorly.
    """
    daemon, client, setup = _boot(architecture, rng)
    setups.append(setup)
    cpus = {max(os.sched_getaffinity(0))}
    os.sched_setaffinity(daemon.process.pid, cpus)
    spent = 0.0
    try:
        finished = client.batch(WARM_UP)
        cpu, calibration = daemon.cpu_s(), calibration_on(cpus)
        for __ in range(BATCHES):
            finished = client.batch(BATCH) and finished
            # The daemon archives and journals an outcome just after its
            # event.
            time.sleep(SETTLE_S)
            used = daemon.cpu_s() - cpu
            after = calibration_on(cpus)
            spent += used * REF_CAL_S / ((calibration + after) / 2)
            cpu, calibration = daemon.cpu_s(), after
    finally:
        _finish(out, daemon, client)
    out.check(finished, f"{architecture}: a batch of {BATCH} did not finish")
    return BATCHES * BATCH / spent


def run_serve_open(seed: int, seconds: float, out: Outcome) -> None:
    rng = random.Random(f"serve-open:{seed}")
    setups: list[float] = []
    trials: dict[str, list[Rung]] = {"low": [], "high": []}
    rss = []
    for __ in range(LATENCY_TRIALS):
        for label, rate in (("low", LOW_RATE), ("high", HIGH_RATE)):
            rung, peak = measure_rung(rate, seconds * LATENCY_TRIAL_SHARE,
                                      rng, out, setups)
            trials[label].append(rung)
            if label == "high":
                rss.append(peak)
    rates = {architecture: batch_rate(architecture, rng, out, setups)
             for architecture in ARCHITECTURES}
    out.put("setup_s", median(setups), "s")
    for architecture in ARCHITECTURES:
        out.put(f"instances_per_s.{architecture}", rates[architecture], "1/s")
    for label, rungs in trials.items():
        pooled = [ms for rung in rungs for ms in rung.latencies_ms]
        out.put(f"latency_p50_ms.{label}", median(pooled), "ms")
        out.put(f"latency_p99_ms.{label}", min(r.p99 for r in rungs), "ms")
    out.put("ok_frac", out.ok_frac(), "frac")
    out.put("peak_rss_mb", median(rss), "MB")
    _log_rungs(f"perfbench: serve-open seed {seed}",
               [*trials["low"], *trials["high"]])


def _log_rungs(title: str, rungs: list[Rung]) -> None:
    lines = [title]
    for rung in rungs:
        lines.append(f"  rung {rung.rate:>5}/s  samples {len(rung.latencies_ms)}"
                     f"  p50 {rung.p50:8.1f} ms  p99 {rung.p99:8.1f} ms  "
                     f"growing {rung.growing}  failed {rung.failed}  "
                     f"{'pass' if rung.passed else 'FAIL'}")
    sys.stderr.write("\n".join(lines) + "\n")


def trace_serve_open(seed: int, seconds: float, out: Outcome) -> None:
    """Low and high rungs on a plain daemon, then the same seeded schedule
    on a daemon started through ``serve_launcher.py``; then the knee
    search, on plain daemons."""
    plain_cpu, plain = _rungs_cpu(seed, seconds, out, spans=None)
    spans = str(out_dir() / "serve-open-spans.jsonl")
    traced_cpu, run = _rungs_cpu(seed, seconds, out, spans=spans)
    client, window, health = run["client"], run["window"], run["health"]
    traffic = client.traffic

    trace_file = out_dir() / "serve-open-trace.jsonl"
    trace_file.write_bytes(run["trace"])
    analyze = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", str(trace_file),
         "--check-invariants"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=170)
    out.check(analyze.returncode == 0,
              "repro analyze --check-invariants failed on /debug/trace: "
              + (analyze.stdout + analyze.stderr)[-2000:])

    recorder = layers.SpanRecorder.from_jsonl(spans)
    lo = bisect_left(recorder.start, window[0])
    hi = bisect_left(recorder.start, window[1])
    summary = layers.summarize(recorder, lo, hi, int(traced_cpu * 1e9))
    perlayer.from_summary(out, summary, len(traffic.acked))
    flushes = [(recorder.end[i] - recorder.start[i]) / 1e6
               for i in range(lo, hi)
               if recorder.names[recorder.name_id[i]] == "journal.flush"]
    with open(spans + ".extra.json", encoding="utf-8") as handle:
        extra = json.load(handle)
    put = functools.partial(perlayer.put, out)
    put("journal.flush_ms.p99", percentile(flushes, 99) if flushes else 0.0)
    put("journal.bytes_per_instance",
        run["wal_bytes"] / max(1, health["instances_submitted"]))
    put("wal.records_end", extra["wal_records_end"])
    put("realtime.events", health["events_processed"])
    put("transport.messages", health["messages_sent"])
    put("executor.retries", health["executor_retries"])
    put("executor.failures", health["executor_failures"])
    put("obs.trace_dropped", health["trace_dropped"])
    put("realtime.loop_lag_p99_ms", percentile(traffic.healthz_ms, 99))
    put("admission.rejected", traffic.rejected)
    put("http.non2xx", traffic.non2xx)
    post = traffic.http_ms["post_workflows"]
    put("http.post_workflows.p50_ms", median(post))
    put("http.post_workflows.p99_ms", percentile(post, 99))
    for kind in ("get_instance", "get_instances", "get_metrics"):
        samples = traffic.http_ms[kind]
        put(f"http.{kind}.p50_ms", median(samples) if samples else 0.0)
    low, high = run["rungs"]
    put("latency_samples.low", len(low.latencies_ms))
    put("latency_samples.high", len(high.latencies_ms))
    put("loadgen.late_p99_ms", 1e3 * percentile(traffic.late_s, 99))
    put("loadgen.late_max_ms", 1e3 * max(traffic.late_s))
    put("coord.self_frac.centralized", summary["layers"]["coord"]["self_frac"])
    put("trace_overhead_frac", traced_cpu / plain_cpu - 1.0)
    report = ("# Per-layer attribution: serve-open\n\n"
              "Shares are of the daemon's CPU time over the low and high "
              f"rungs ({traced_cpu:.2f} s traced, {plain_cpu:.2f} s "
              "untraced).\n\n"
              + layers.layer_table(summary, "serve-open: centralized daemon"))
    write_report("serve-open-layers.md", report)
    sys.stderr.write(report)

    knee, tried = knee_search(list(plain["rungs"]), seconds * KNEE_TRIAL_SHARE,
                              random.Random(f"serve-open-knee:{seed}"), out)
    put("knee_rate_per_s", knee)
    _log_rungs(f"perfbench: serve-open knee search, seed {seed}: {knee:g}/s",
               tried)


def _rungs_cpu(seed: int, seconds: float, out: Outcome,
               spans: str | None) -> tuple[float, dict[str, Any]]:
    """Low then high rung on one daemon; returns its CPU seconds over the
    rungs and, for a traced daemon, what the attribution needs."""
    rng = random.Random(f"serve-open:{seed}")
    daemon, client, __ = _boot("centralized", rng, spans, poll_healthz=True)
    run: dict[str, Any] = {"client": client}
    try:
        cpu = daemon.cpu_s()
        started = time.perf_counter_ns()
        run["rungs"] = (client.rung(LOW_RATE, seconds / 6),
                        client.rung(HIGH_RATE, seconds / 6))
        run["window"] = (started, time.perf_counter_ns())
        cpu = daemon.cpu_s() - cpu
        if spans is not None:
            run["health"] = json.loads(
                request(daemon.port, "GET", "/healthz")[1])
            run["trace"] = request(daemon.port, "GET", "/debug/trace")[1]
            run["wal_bytes"] = (daemon.state_dir / "service.wal").stat().st_size
    finally:
        _finish(out, daemon, client)
    return cpu, run
