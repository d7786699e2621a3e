"""Running one CLI command as a user does, timing it and judging its output."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from workloads import Command

# Relative to the checkout root, the working directory of the benchmark and
# of every command it starts.
SRC = Path("src")
COMMAND_TIMEOUT_S = 120


@dataclass
class Sample:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: Optional[float]  # None for in-process replays
    exit_code: int
    problem: Optional[str]


def judge(command: Command, exit_code: int, stdout: str) -> Optional[str]:
    """What is wrong with a finished command, or None."""
    if exit_code != command.expect_exit:
        return f"exit code {exit_code}, expected {command.expect_exit}"
    try:
        return command.check(stdout)
    except (ValueError, OSError) as exc:
        return f"output could not be checked: {exc}"


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # the group has already exited
        pass


def run_cli(command: Command, out_dir: Path, pythonpath: Path = SRC, flags: tuple[str, ...] = ()) -> Sample:
    """Run `python -m ternaryperm` to completion; time it and read its rusage.

    Standard output and error go to files, never to a pipe.  wait4 gives
    the child's own peak RSS and CPU time, with that of the pool workers
    it reaped.  The child leads its own process group, so a timeout also
    stops the workers of `--parallel`, and so does an exception (such as
    the SystemExit that run.py raises on SIGTERM) while the child runs.
    """
    if command.prepare is not None:
        command.prepare()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(pythonpath), env.get("PYTHONPATH")]))
    stdout_path = out_dir / f"{command.label}.stdout"
    argv = [sys.executable, *flags, "-m", "ternaryperm", *command.args]
    with open(stdout_path, "wb") as out, open(out_dir / f"{command.label}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        command.label,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # KiB on Linux
        proc.returncode,
        judge(command, proc.returncode, stdout_path.read_text()),
    )
