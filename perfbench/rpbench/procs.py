"""Driving the rowpress binary: one-shot processes and serve sessions.

Every process started here is reaped here (os.wait4, so its CPU time
and peak RSS come from the kernel's own accounting), and killed if it
outlives the run's deadline.
"""

import json
import os
import select
import signal
import subprocess
import threading
import time


class BenchError(RuntimeError):
    """The program misbehaved in a way that ends the run."""


class Deadline:
    """Wall-clock budget of one benchmark run."""

    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        return self.end - time.monotonic()

    def check(self):
        if self.left() <= 0:
            raise BenchError("run exceeded its time budget")


_live = set()   # processes started and not yet reaped


def _spawn(argv, **kwargs):
    proc = subprocess.Popen(argv, **kwargs)
    _live.add(proc)
    return proc


def _reap(proc):
    """Block until proc exits; returns (exit code, rusage)."""
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _live.discard(proc)
    return proc.returncode, usage


def kill_all():
    """Kill and reap every process still running (error paths)."""
    for proc in list(_live):
        try:
            proc.send_signal(signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(proc)


class Finished:
    """Exit status and kernel accounting of one process."""

    def __init__(self, code, usage, wall_s):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # Linux: KiB


def run_once(argv, stdout_path, deadline):
    """Run argv to completion with stdout to a file; spawn -> exit."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = _spawn(argv, stdout=out,
                      stderr=subprocess.DEVNULL,
                      stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(deadline.left(), 0.0), proc.kill)
        timer.start()
        try:
            code, usage = _reap(proc)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    deadline.check()
    return Finished(code, usage, wall)


def proc_cpu_s(pid):
    """User+system CPU seconds of a live process (clock-tick grain)."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    """Peak resident set of a live process so far (VmHWM), in MB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class ServeSession:
    """One `rowpress serve` process driven over stdio NDJSON.

    Responses are matched by tag and events by job id; every line is
    stamped with the time its bytes were read.
    """

    def __init__(self, binary, args, deadline):
        self.deadline = deadline
        self.t_spawn = time.perf_counter()
        self.proc = _spawn([binary, "serve", *args],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL)
        self._fd = self.proc.stdout.fileno()
        self._buf = b""
        self._tag = 0
        self.responses = {}   # tag -> (t, response)
        self.finished = {}    # job id -> (t, event)
        self.progress = {}    # job id -> [(t, done, total)]

    def send(self, request):
        """Write one request; returns its tag and the send time."""
        self._tag += 1
        request = dict(request, tag=self._tag)
        t = time.perf_counter()
        try:
            self.proc.stdin.write(json.dumps(request).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as e:
            raise BenchError("serve closed its input") from e
        return self._tag, t

    def _read_chunk(self, eof_ok=False):
        """Read what serve has written; False at end of stream."""
        left = self.deadline.left()
        ready = select.select([self._fd], [], [], max(left, 0.0))[0]
        if not ready:
            raise BenchError("serve did not answer within the budget")
        chunk = os.read(self._fd, 1 << 16)
        if not chunk:
            if eof_ok:
                return False
            raise BenchError("serve exited unexpectedly")
        t = time.perf_counter()
        self._buf += chunk
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            if line.strip():
                self._dispatch(t, json.loads(line))
        return True

    def _dispatch(self, t, msg):
        if "ok" in msg and "tag" in msg:
            self.responses[msg["tag"]] = (t, msg)
        elif msg.get("event") == "finished":
            self.finished[msg["job"]] = (t, msg)
        elif msg.get("event") == "progress":
            self.progress.setdefault(msg["job"], []).append(
                (t, msg["done"], msg["total"]))

    def response(self, tag):
        """Block until the response to tag arrives; (t, response)."""
        while tag not in self.responses:
            self._read_chunk()
        return self.responses.pop(tag)

    def request(self, req):
        """Round trip: (t_sent, t_answered, response)."""
        tag, t0 = self.send(req)
        t1, resp = self.response(tag)
        return t0, t1, resp

    def wait_finished(self, jobs):
        """Block until one of jobs finishes; returns its id."""
        while True:
            for job in jobs:
                if job in self.finished:
                    return job
            self._read_chunk()

    def close(self):
        """Graceful shutdown; reaps the process (drains its jobs)."""
        try:
            self.send({"op": "shutdown"})
            self.proc.stdin.close()
        except (BenchError, OSError):
            pass
        # Drain the event stream to its end so a full pipe cannot
        # stall the shutdown.
        while self._read_chunk(eof_ok=True):
            pass
        timer = threading.Timer(max(self.deadline.left(), 0.0),
                                self.proc.kill)
        timer.start()
        try:
            code, usage = _reap(self.proc)
        finally:
            timer.cancel()
            self.proc.stdout.close()
        fin = Finished(code, usage, time.perf_counter() - self.t_spawn)
        self.deadline.check()
        return fin

    def kill(self):
        if self.proc in _live:
            try:
                self.proc.send_signal(signal.SIGKILL)
            except ProcessLookupError:
                pass
            _reap(self.proc)
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
