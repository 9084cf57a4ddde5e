"""Benchmark of the qumark CLI: two write-heavy pipelines and a read-heavy owner audit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload raw-dense --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --smoke                 # every stage and check at ~10^4 bits

Untraced runs (--trace 0) drive `python -m qumark.cli` with PYTHONPATH=src,
one stage per child process and one child at a time (a closed loop with a
single client), repeating whole passes of the workload for about --seconds.
They report medians within the run, divided by the run's slowdown against
the reference machine (see SpeedProbe); the wall values are printed beside
them. Traced runs (--trace 1) make one untraced
child pass for per-stage wall time and RSS, then replay the pass in-process
twice, untraced and traced, and report per-layer metrics from the spans.
Every stage's output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import inputs
from spans import Tracer, layer_metrics
from workloads import DEFAULT_SEED, Checker, Outcome, sha256, stages_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# raw-dense is left out of BENCHMARK.json: on a shared 2-vCPU VM the ten-seed
# spread of its pass_s stayed at 0.13-0.20 of the median, too wide to gate on.
# It still runs by name, under --workload all and under --smoke.
WORKLOADS = ("raw-dense", "pgm-sparse", "owner-audit")
SETUP_SAMPLES = 15
RUN_DEADLINE_S = 170  # a run that takes longer is stopped without a result
CRASH = -1  # exit code recorded for an exception escaping an in-process stage

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "keys.derive_indices_s": "s", "keys.marks": "count", "keys.eligible": "count",
    "carrier.ingest_s": "s", "carrier.payload_bits": "count",
    "watermark.build_message_s": "s", "watermark.bytes_per_qubit": "B",
    "watermark.embed_s": "s", "qstate.draws": "count", "watermark.observe_s": "s",
    "fileformats.dump_quantum_message_s": "s", "fileformats.message_bytes": "B",
    "fileformats.load_quantum_message_s": "s",
    "fileformats.load_observation_s": "s", "fileformats.dump_observation_s": "s",
    "fileformats.load_secret_s": "s", "fileformats.dump_secret_s": "s",
    "watermark.verify_s": "s",
    "stats.decide_binom_s": "s", "stats.decide_wilson_s": "s", "stats.decide_fixed_s": "s",
    "stats.recommended_sample_size_s": "s",
    "attacks.noise_attack_s": "s", "attacks.shift_attack_s": "s",
    "attacks.averaging_attack_s": "s",
    "cli.self_s": "s",
    "cli.keygen_s": "s", "cli.embed_s": "s", "cli.observe_s": "s", "cli.verify_s": "s",
    "cli.attack_s": "s", "cli.analyze_s": "s",
    "cli.keygen_rss_mb": "MB", "cli.embed_rss_mb": "MB", "cli.observe_rss_mb": "MB",
    "cli.verify_rss_mb": "MB",
    "trace.overhead_frac": "ratio",
}
STAGE_KINDS = ("keygen", "embed", "observe", "verify", "attack", "analyze")

# Time of calibration_kernel on the machine the baseline was measured on, when
# unloaded (2-vCPU Intel Xeon VM, Python 3.11.7); end-to-end times are
# reported at that machine's speed.
CALIBRATION_REFERENCE_S = 0.025

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import qumark.cli\n"
    "qumark.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def calibration_kernel() -> None:
    """Fixed stdlib work of the kind the CLI does: float formatting and a JSON round trip."""
    words = [f"{i * 0.25:.6f}" for i in range(40000)]  # ~4 MB live, past the L2 cache
    json.loads(json.dumps(words))


class SpeedProbe:
    """Samples how fast this machine runs Python right now, between stages.

    On a shared machine the speed of the same work drifts by tens of percent
    within minutes. Dividing a run's times by the mean slowdown of a fixed
    kernel, sampled between that run's stages, takes most of the drift out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        return statistics.mean(self.samples) / CALIBRATION_REFERENCE_S


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QUMARK_SEED", None)
    return env


def run_child(args: list[str], work: Path) -> Outcome:
    """Run one interpreter to completion; peak RSS comes from its own rusage via wait4."""
    out_path, err_path = work / "stage.stdout", work / "stage.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=_child_env(), cwd=ROOT,
        )
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(), wall,
                   usage.ru_maxrss / 1024)


def run_inprocess(argv: list[str]) -> Outcome:
    import qumark.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = qumark.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = CRASH
    return Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def measure_setup(work: Path, samples: int, probe: SpeedProbe) -> list[float]:
    """Import qumark.cli and build its parser in fresh interpreters, timed inside each."""
    run_child(["-c", SETUP_CODE], work)  # compiles bytecode on a fresh checkout
    times = []
    for _ in range(samples):
        probe.sample()
        outcome = run_child(["-c", SETUP_CODE], work)
        if outcome.code != 0:
            raise RuntimeError(f"importing qumark.cli failed: {outcome.stderr.strip()}")
        times.append(float(outcome.stdout))
    return times


class Run:
    """One workload at one seed: inputs, stages, checks and the passes made."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.smoke = smoke
        sizes = (inputs.SMOKE if smoke else inputs.FULL)[workload]
        self.inputs = inputs.generate(workload, seed, sizes, work)
        self.stages = stages_for(workload, self.inputs, work, seed)
        self.checker = Checker()
        self.pins = None
        if seed == DEFAULT_SEED:
            table = json.loads((BENCH / "pinned_sha256.json").read_text())
            self.pins = table["smoke" if smoke else "full"].get(workload, {})
        self.artifacts: dict[str, str | None] = {}

    def run_pass(self, runner, tracer: Tracer | None = None) -> list[tuple[str, Outcome]]:
        outcomes = []
        for stage in self.stages:
            if tracer is None:
                outcome = runner(stage.argv)
            else:
                with tracer.stage(f"cli.{stage.kind}"):
                    outcome = runner(stage.argv)
            stage.check(outcome, self.checker)
            for name in stage.artifacts:
                path = self.work / name
                digest = sha256(path) if path.exists() else None
                self.artifacts[name] = digest
                if self.pins is not None:
                    pin = self.pins.get(name)
                    self.checker.check(f"{name} sha256 equals the seed commit's",
                                       digest == pin, f"{digest} != {pin}")
            outcomes.append((stage.kind, outcome))
        return outcomes

    def child_pass(self, probe: SpeedProbe | None = None) -> list[tuple[str, Outcome]]:
        def runner(argv: list[str]) -> Outcome:
            if probe is not None:
                probe.sample()
            return run_child(["-m", "qumark.cli", *argv], self.work)

        return self.run_pass(runner)

    def measure(self, seconds: float) -> dict:
        """Untraced passes for about `seconds`; end-to-end medians within the run."""
        probe = SpeedProbe()
        setup = measure_setup(self.work, SETUP_SAMPLES, probe)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.child_pass(probe))
            elapsed = time.perf_counter() - start
            # stop where the next pass would end further past `seconds` than this one falls short
            if elapsed + 0.5 * elapsed / len(passes) >= seconds:
                break
        outcomes = [pair for p in passes for pair in p]
        # each stage's median over the passes, so one slow stretch of a shared
        # machine moves one stage of one pass, not the whole pass
        stage_times = [statistics.median(o.wall_s for _k, o in column) for column in zip(*passes)]
        slowdown = probe.slowdown()
        wall = {"setup_s": statistics.median(setup), "pass_s": sum(stage_times)}
        values = {name: value / slowdown for name, value in wall.items()}
        values["peak_rss_mb"] = max(o.rss_mb for _k, o in outcomes)
        how = {"setup_s": f"median of {len(setup)} imports",
               "pass_s": f"sum of {len(stage_times)} stage medians over {len(passes)} passes",
               "peak_rss_mb": f"max of {len(outcomes)} children"}
        print(f"{self.workload:12} {'slowdown':24} {slowdown:14.6f} x      mean of"
              f" {len(probe.samples)} calibration samples; times below are wall / slowdown")
        for name, value in values.items():
            raw = f", wall {wall[name]:.6f}" if name in wall else ""
            print(f"{self.workload:12} {name:24} {value:14.6f} {END_TO_END[name]:6} {how[name]}{raw}")
        self._print_stage_detail(passes, stage_times)
        return values

    def _print_stage_detail(self, passes: list, stage_times: list[float]) -> None:
        """The per-stage view of the same passes, for people; not part of the result."""
        kinds = [kind for kind, _o in passes[0]]
        for kind in STAGE_KINDS:
            if kind == "verify":
                times = [o.wall_s for p in passes for k, o in p if k == kind]
                value, how = statistics.median(times), f"median of {len(times)} children"
            elif kind in kinds:
                value = sum(t for k, t in zip(kinds, stage_times) if k == kind)
                how = "sum of stage medians"
            else:
                continue
            print(f"{self.workload:12}   {kind + '_s':22} {value:14.6f} s      {how}")
        if "embed" in kinds:
            chain = sum(stage_times[:4])  # keygen, embed, observe, verify the observed copy
            print(f"{self.workload:12}   {'pipeline_bits_per_s':22} "
                  f"{self.inputs.bit_length / chain:14.1f} 1/s    payload bits")
            size = (self.work / "marked.json").stat().st_size
            print(f"{self.workload:12}   {'artifact_bytes_per_bit':22} "
                  f"{size / self.inputs.bit_length:14.6f} B      marked.json")
        c = self.checker
        print(f"{self.workload:12}   {'ops_failed_frac':22} {c.failed / max(c.attempted, 1):14.6f}"
              f" ratio  {c.failed} of {c.attempted} stages and checks")

    def trace(self) -> dict:
        """One child pass, then the same pass in-process untraced and traced."""
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        children = self.child_pass()
        plain = self.run_pass(run_inprocess)
        tracer = Tracer()
        tracer.install()
        try:
            traced = self.run_pass(run_inprocess, tracer)
        finally:
            tracer.uninstall()
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layer_metrics(tracer.spans))
        for kind in ("keygen", "embed", "observe", "attack", "analyze"):
            metrics[f"cli.{kind}_s"] = sum((o.wall_s for k, o in children if k == kind), 0.0)
        metrics["cli.verify_s"] = statistics.median(o.wall_s for k, o in children if k == "verify")
        for kind in ("keygen", "embed", "observe", "verify"):
            metrics[f"cli.{kind}_rss_mb"] = max(
                (o.rss_mb for k, o in children if k == kind), default=0.0)
        plain_s = sum(o.wall_s for _k, o in plain)
        metrics["trace.overhead_frac"] = sum(o.wall_s for _k, o in traced) / plain_s - 1.0
        if self.workload != "owner-audit":
            metrics["watermark.bytes_per_qubit"] = bytes_per_qubit(self.inputs)
        self._check_draws(tracer.spans, metrics)
        self._write_trace(tracer.spans, children, metrics)
        return metrics

    def _check_draws(self, spans: list[dict], metrics: dict) -> None:
        n, c = self.inputs.bit_length, self.checker
        expected = {"watermark.embed": self.inputs.marks, "watermark.observe": n,
                    "attacks.noise_attack": n}
        for span in spans:
            if span["name"] in expected:
                c.check(f"{span['name']} draws", span["draws"] == expected[span["name"]],
                        f"{span['draws']} != {expected[span['name']]}")
        total = n if self.workload == "owner-audit" else self.inputs.marks + n
        c.check("qstate.draws", metrics["qstate.draws"] == total,
                f"{metrics['qstate.draws']} != {total}")

    def _write_trace(self, spans: list[dict], children: list, metrics: dict) -> None:
        mode = "-smoke" if self.smoke else ""
        out = BENCH / "traces" / f"{self.workload}-seed{self.seed}{mode}.json"
        out.parent.mkdir(exist_ok=True)
        document = {
            "workload": self.workload, "seed": self.seed, "run": run_info(),
            "metrics": metrics, "artifacts_sha256": self.artifacts,
            "child_pass": [{"kind": k, "wall_s": o.wall_s, "rss_mb": o.rss_mb, "exit": o.code}
                           for k, o in children],
            "failures": self.checker.failures, "spans": spans,
        }
        out.write_text(json.dumps(document, indent=1) + "\n")

    def result(self, values: dict, units: dict) -> dict:
        c = self.checker
        return {
            "correct": not c.failures,
            "attempted": c.attempted,
            "failed": c.failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }


def bytes_per_qubit(generated: inputs.Inputs) -> float:
    """Live bytes per qubit of one build_message on the payload, under tracemalloc."""
    import tracemalloc

    from qumark.qstate import Basis
    from qumark.watermark import build_message

    bits = format(generated.bits, f"0{generated.bit_length}b")
    basis = Basis(0.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        message = build_message(bits, basis)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return live / len(message)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"


def run_info() -> dict:
    return {"git_sha": _git_sha(), "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0))}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    work = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.alarm(RUN_DEADLINE_S)
    try:
        run = Run(workload, seed, smoke, work)
        if smoke:
            run.trace()
            result = run.result({}, {})
        elif traced:
            result = run.result(run.trace(), PER_LAYER)
        else:
            result = run.result(run.measure(seconds), END_TO_END)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
    for failure in run.checker.failures:
        print(f"{workload}: FAILED {failure}", file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every stage and check of every workload at ~10^4 bits")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "qumark" / "cli.py").is_file():
        print(f"error: no qumark sources at {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    print(f"# run: {json.dumps(run_info())}")
    if args.smoke or args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
                   for w in WORKLOADS}
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    for name, metric in result["metrics"].items():
        if args.trace:
            print(f"{args.workload:12} {name:36} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
