"""Building the system under test from the checkout, running its
processes with resource accounting, and the attribution block."""

import atexit
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BUILD_JOBS = 4
_live = set()  # Procs started and not yet reaped


class BenchError(Exception):
    """A failure that ends the run without a result."""


def _run_logged(cmd, log, cwd):
    with open(log, "ab") as out:
        out.write(("\n$ %s\n" % " ".join(cmd)).encode())
        out.flush()
        status = subprocess.run(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT).returncode
    if status != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        raise BenchError("command failed (%d): %s\n%s" % (status, " ".join(cmd), "\n".join(tail)))


def build(root, build_root):
    """Builds avglocal_cli (and with it libavglocal.a) through the
    repository's own CMake project, then the traced harness against that
    library. Returns {"cli", "harness", "allocs", "repo_build"}."""
    root = Path(root)
    if not (root / "CMakeLists.txt").is_file() or not (root / "src" / "core").is_dir():
        raise BenchError("no avglocal source tree in %s" % root)
    repo_build = Path(build_root) / "repo"
    harness_build = Path(build_root) / "harness"
    repo_build.mkdir(parents=True, exist_ok=True)
    log = Path(build_root) / "build.log"
    if not (repo_build / "CMakeCache.txt").exists():
        _run_logged(["cmake", "-S", str(root), "-B", str(repo_build),
                     "-DCMAKE_BUILD_TYPE=Release"], log, root)
    _run_logged(["cmake", "--build", str(repo_build), "--target", "avglocal_cli",
                 "-j", str(BUILD_JOBS)], log, root)
    library = repo_build / "libavglocal.a"
    if not (harness_build / "CMakeCache.txt").exists():
        _run_logged(["cmake", "-S", str(root / "perfbench" / "harness"), "-B", str(harness_build),
                     "-DCMAKE_BUILD_TYPE=Release", "-DAVGLOCAL_SOURCE_DIR=%s" % root,
                     "-DAVGLOCAL_LIBRARY=%s" % library], log, root)
    _run_logged(["cmake", "--build", str(harness_build), "-j", str(BUILD_JOBS)], log, root)
    return {
        "cli": str(repo_build / "avglocal_cli"),
        "harness": str(harness_build / "perfbench_harness"),
        "allocs": str(harness_build / "perfbench_allocs"),
        "repo_build": repo_build,
    }


class Proc:
    """A child process of the system under test. wait() reaps it with
    os.wait4, so its rusage (CPU time, peak RSS of it and the children it
    waited for) is exact. A watchdog kills it if it outlives `timeout`."""

    def __init__(self, args, cwd, timeout, log=None, env=None):
        self.args = args
        self.started = time.perf_counter()
        out = open(log, "ab") if log else subprocess.DEVNULL
        try:
            self.popen = subprocess.Popen(args, cwd=cwd, stdout=subprocess.DEVNULL,
                                          stderr=out, env=env, start_new_session=True)
        finally:
            if log:
                out.close()
        _live.add(self)
        self._watchdog = threading.Timer(timeout, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.status = None
        self.rusage = None
        self.ended = None

    def _kill(self):
        try:
            os.killpg(self.popen.pid, 9)
        except ProcessLookupError:
            pass

    def wait(self):
        if self.status is None:
            _, status, rusage = os.wait4(self.popen.pid, 0)
            self.ended = time.perf_counter()
            self._watchdog.cancel()
            _live.discard(self)
            self.status = os.waitstatus_to_exitcode(status)
            self.popen.returncode = self.status
            self.rusage = rusage
            # Anything the process left behind in its group (a killed
            # launcher's workers) goes with it.
            try:
                os.killpg(self.popen.pid, 9)
            except (ProcessLookupError, PermissionError):
                pass
        return self.status

    def kill(self):
        if self.status is None:
            self._kill()
            self.wait()

    @property
    def wall_s(self):
        return self.ended - self.started

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def maxrss_mb(self):
        return self.rusage.ru_maxrss / 1024.0


def stop_children_on_exit():
    """Kills and reaps every Proc still running when the benchmark exits,
    SIGTERM included, so no process it started outlives it."""
    def stop_all():
        for proc in list(_live):
            proc.kill()
    atexit.register(stop_all)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


def proc_cpu_s(pid):
    """utime + stime of a live process, from /proc (clock-tick resolution)."""
    fields = Path("/proc/%d/stat" % pid).read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def attribution(root, repo_build, harness):
    cache = (Path(repo_build) / "CMakeCache.txt").read_text(errors="replace")
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    build_type = build_type.group(1) if build_type else "unknown"
    compiler = "unknown"
    for path in Path(repo_build, "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        text = path.read_text(errors="replace")
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            compiler = "%s %s" % (ident.group(1), version.group(1))
    cpu_model = "unknown"
    try:
        match = re.search(r"^model name\s*:\s*(.*)$", Path("/proc/cpuinfo").read_text(), re.M)
        if match:
            cpu_model = match.group(1).strip()
    except OSError:
        pass
    isa = subprocess.run([harness, "--isa"], capture_output=True, text=True).stdout.strip()
    commit = "unknown (not a git checkout)"
    if (Path(root) / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "isa": isa or "unknown",
        "compiler": compiler,
        "build_type": build_type,
        "git_commit": commit,
        "comparable": build_type == "Release",
    }


def log(message):
    print(message, file=sys.stderr, flush=True)
