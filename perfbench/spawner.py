"""Starts the program processes of a benchmark run and reports on each.

Reads one JSON request per line on stdin, ``{"argv", "stdout", "stderr",
"timeout"}``, runs it to completion, and answers with one JSON line:
wall seconds, the child's CPU seconds (user + system), the same rescaled to
the reference speed of perfbench/probe.py, its exit code and its peak RSS in
kB. CPU time and peak RSS come from ``os.wait4``. ``curve`` lists
``[cpu_s, rescaled_s]`` as the child went, so that a part of its run can be
rescaled too.

It is a process of its own because Linux carries the parent's peak RSS
into a child's ``ru_maxrss`` when the child execs: children of run.py,
which holds oracles and a loaded index, would report run.py's peak instead
of their own. This process stays small, so its children's figures are
theirs.

It pins itself, and so every child, to one core. A probe thread on that core
measures its speed every ``probe.EVERY_NS``, sleeping in between, and
rescales the CPU time the child used since the last probe.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time

import probe

running = []


def stop(signum, frame):
    for proc in running:
        proc.kill()
        proc.wait()
    sys.exit(1)


def cpu_ns(pid: int, threads: dict) -> int:
    """CPU time so far of every thread of ``pid``, ended ones up to their last sighting.

    ``threads`` maps each thread id seen to its CPU time then.
    """
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as fh:
                threads[tid] = int(fh.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended
    return sum(threads.values())


class Watch(threading.Thread):
    """Rescales the CPU time of one running child, window by window."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.done = threading.Event()
        self.seen_ns = 0  # CPU time of the child seen so far
        self.rescaled_ns = 0.0
        self.unit_ns = probe.REF_NS  # the last probe's cost
        self.curve = [[0.0, 0.0]]
        self.threads = {}

    def run(self) -> None:
        while not self.done.is_set():
            probe.cost_ns()  # brings the probe's array back into the caches the child used
            self.unit_ns = probe.cost_ns()
            try:
                now = cpu_ns(self.pid, self.threads)
            except OSError:  # exited, not yet reaped
                return
            if now > self.seen_ns:
                self.rescaled_ns += probe.rescale(now - self.seen_ns, self.unit_ns)
                self.seen_ns = now
                self.curve.append([now / 1e9, self.rescaled_ns / 1e9])
            self.done.wait(probe.EVERY_NS / 1e9)

    def stop(self) -> None:
        self.done.set()
        self.join()

    def finish(self, total_s: float) -> float:
        """Rescaled seconds of the whole child, once stopped with its CPU time."""
        rest_ns = max(total_s * 1e9 - self.seen_ns, 0)  # the last window
        self.rescaled_ns += probe.rescale(rest_ns, self.unit_ns)
        self.curve.append([total_s, self.rescaled_ns / 1e9])
        return self.rescaled_ns / 1e9


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            running[:] = [proc]
            watch = Watch(proc.pid)
            watch.start()
            timer = threading.Timer(request["timeout"], proc.kill)
            timer.start()
            try:
                # Wait for the exit without reaping, so that the pid stays
                # the child's until the watch has stopped reading it.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                watch.stop()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            running.clear()
        cpu = usage.ru_utime + usage.ru_stime
        rescaled = watch.finish(cpu)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "cpu": cpu, "rescaled": rescaled, "curve": watch.curve,
                          "rc": proc.returncode, "max_rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
