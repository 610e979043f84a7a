"""Spawn CLI requests one at a time and account for every outcome.

A request is one fresh ``python -m solvsoliton.cli`` process over the
checkout's ``src`` tree.  Its time runs from spawn to exit with the output
captured; its peak resident memory comes from the child's own rusage.  A
request that times out is killed and counted as failed; nothing is retried
or dropped.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI = (sys.executable, "-m", "solvsoliton.cli")
TRACED_CLI = (sys.executable, str(Path(__file__).with_name("trace_child.py")))
REQUEST_TIMEOUT_S = 30.0


@dataclass
class Outcome:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int
    timed_out: bool


def child_env() -> dict:
    """The parent's environment with PYTHONPATH pinned to ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SOLV_"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, timeout: float = REQUEST_TIMEOUT_S) -> Outcome:
    """Run ``argv`` to completion or until ``timeout``, whichever is first."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    chunks = {}

    def drain(name, stream):
        chunks[name] = stream.read()
        stream.close()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    # Wait for exit without reaping, so the timer can never signal a reused pid.
    os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    seconds = time.perf_counter() - start
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    return Outcome(
        seconds=seconds,
        returncode=proc.returncode,
        stdout=chunks["out"],
        stderr=chunks["err"],
        max_rss_kb=usage.ru_maxrss,
        timed_out=state["killed"],
    )


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports solvsoliton.cli and exits."""
    outcome = spawn((sys.executable, "-c", "import solvsoliton.cli"))
    if outcome.returncode != 0:
        raise RuntimeError(f"import solvsoliton.cli failed: {outcome.stderr.decode(errors='replace')}")
    return outcome.seconds
