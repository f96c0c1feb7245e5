"""Runs one workload: set-up, timed CLI repetitions, checks, and the traced run.

Every CLI step is a child process `python -m contagion_lab ...` started with
PYTHONPATH set to the absolute directory that holds the package, BLAS pinned
to one thread and CONTAGION_LAB_THREADS removed. Each step's wall time comes
from the parent's clock; its CPU time and peak RSS come from that child's own
`os.wait4` rusage, which also covers the pool workers it reaped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
BUDGET_S = 150.0  # no new repetition starts once a run could pass this
DEADLINE_S = 170.0  # children still running then are killed, so a run ends within 180 s


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv, cwd, env, log_path, timeout_s) -> Child:
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


@dataclass
class Rep:
    steps: dict = field(default_factory=dict)  # step -> Child
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.steps.values())

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.steps.values())

    @property
    def peak_rss_mb(self):
        return max((c.peak_rss_mb for c in self.steps.values()), default=0.0)


def median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


class Run:
    """One invocation: a workload at a seed, in its own directory under `work`."""

    def __init__(self, workload, seed, src_dir, work, tiny=False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.dir = Path(work) / f"{workload}-s{seed}-p{os.getpid()}"
        self.logs = self.dir / "logs"
        self.logs.mkdir(parents=True)
        self.env = dict(os.environ)
        workloads.pin_environment(self.env)
        self.env["PYTHONPATH"] = str(src_dir)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.environment = {}  # from the first set-up child's env.json

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def _child(self, argv, cwd, log_name) -> Child:
        self.attempted += 1
        child = run_child(argv, cwd, self.env, self.logs / log_name, self.remaining())
        if child.returncode != 0:
            self.failed += 1
            self.problems.append(f"{log_name}: exit code {child.returncode}")
        return child

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> list[float]:
        """Generate the inputs SETUP_REPEATS times; every copy must be identical."""
        script = str(Path(__file__).with_name("setup_inputs.py"))
        times, first = [], None
        for k in range(SETUP_REPEATS):
            d = self.dir / f"setup-{k}"
            d.mkdir()
            argv = [sys.executable, script, self.workload, str(self.seed), str(d)]
            child = self._child(argv + (["--tiny"] if self.tiny else []), d, f"setup-{k}.log")
            if child.returncode != 0:
                break
            times.append(child.wall_s)
            made = {n: h for n, h in checks.digests(str(d)).items() if n != "env.json"}
            if first is None:
                first = made
                self.inputs_dir = d
                with open(d / "env.json", encoding="utf-8") as fh:
                    self.environment = json.load(fh)
            elif made != first:
                self.problems.append(f"setup-{k}: inputs differ from setup-0")
        return times

    def _fresh_rep_dir(self, name) -> Path:
        d = self.dir / name
        d.mkdir()
        for f in workloads.inputs(self.workload):
            shutil.copy(self.inputs_dir / f, d / f)
        return d

    # -- timed repetitions -------------------------------------------------------

    def rep(self, k, serial=False) -> Rep:
        d = self._fresh_rep_dir(f"rep-{k}")
        rep = Rep()
        for step, argv in workloads.steps(self.workload, self.seed, self.tiny, serial):
            cmd = [sys.executable, "-m", "contagion_lab", *argv]
            child = self._child(cmd, d, f"rep-{k}-{step}.log")
            rep.steps[step] = child
            if child.returncode:
                rep.problems.append(f"{step}: exit code {child.returncode}")
                break
            problems = checks.check_step(step, str(d))
            if problems:
                self.failed += 1
                self.problems += problems
                rep.problems += problems
                break
        if not rep.problems:
            rep.quality = checks.quality(self.workload, str(d))
        rep.digests = checks.digests(str(d))
        return rep

    def compare(self, base: Rep, other: Rep, label: str) -> None:
        differ = sorted(
            n for n in set(base.digests) | set(other.digests)
            if base.digests.get(n) != other.digests.get(n)
        )
        if differ:
            self.problems.append(f"{label}: artifacts differ from the first repetition: {differ}")

    def repetitions(self, seconds) -> list[Rep]:
        """Repeat the pipeline until `seconds` have passed; every repeat must match the first."""
        reps = []
        begun = time.perf_counter()
        while not reps or time.perf_counter() - begun < seconds:
            last = reps[-1].wall_s if reps else 0.0
            if reps and time.perf_counter() - self.start + last > BUDGET_S:
                break
            reps.append(self.rep(len(reps)))
            if self.problems:
                break
            if len(reps) > 1:
                self.compare(reps[0], reps[-1], f"rep-{len(reps) - 1}")
        return reps

    # -- traced run ----------------------------------------------------------------

    def start_up(self) -> tuple[float, float]:
        """Median fresh-interpreter time with and without `import contagion_lab.cli`."""
        bare, full = [], []
        for k in range(IMPORT_REPEATS):
            for label, code, into in (("bare", "pass", bare),
                                      ("import", "import contagion_lab.cli", full)):
                child = self._child([sys.executable, "-c", code], self.dir, f"{label}-{k}.log")
                into.append(child.wall_s)
        return median(bare), median(full)

    def traced_rep(self, tracer) -> tuple[Rep, dict]:
        """The serial pipeline in-process under `tracer`; returns step span times."""
        from contagion_lab import cli

        d = self._fresh_rep_dir("traced")
        rep, step_s = Rep(), {}
        here = os.getcwd()
        tracing.install(tracer)
        try:
            os.chdir(d)
            for step, argv in workloads.steps(self.workload, self.seed, self.tiny, serial=True):
                self.attempted += 1
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    before = len(tracer.spans)
                    with tracer.span(f"cli.{step}"):
                        code = cli.main(argv)
                step_s[step] = tracer.spans[before].duration
                problems = [f"traced {step}: exit code {code}"] if code else []
                problems = problems or checks.check_step(step, str(d))
                if problems:
                    self.failed += 1
                    rep.problems += problems
                    break
        finally:
            os.chdir(here)
            tracer.restore()
        self.problems += rep.problems
        rep.digests = checks.digests(str(d))
        return rep, step_s

    def traced(self) -> tuple[dict, Rep]:
        """Untraced serial CLI repetition, traced in-process repetition, start-up costs."""
        tracer = tracing.Tracer()
        untraced = self.rep(0, serial=True)
        if self.problems:
            return {}, untraced
        traced, step_s = self.traced_rep(tracer)
        if self.problems:
            return {}, untraced
        self.compare(untraced, traced, "traced")
        bare_s, start_s = self.start_up()
        overhead = sum(
            tracing.tracing_overhead(step_s[s], untraced.steps[s].wall_s, start_s) for s in step_s
        )
        selfs = tracing.self_times(tracer.spans)
        worst = max(map(abs, tracing.root_residuals(tracer.spans, selfs).values()), default=0.0)
        if worst > 1e-6:
            self.problems.append(f"span self times miss their step span by {worst} s")
        return tracing.layer_metrics(tracer, start_s - bare_s, overhead), untraced

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def git_commit(root: Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
