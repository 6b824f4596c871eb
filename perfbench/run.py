"""webpolar benchmark: one closed-loop client against the calculator.

    python3 perfbench/run.py --workload {elim,web-lab,calculus} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  One
client sends the next request only after the previous one has answered, as
a script calling the CLI does.  A request is an in-process
``webpolar.cli.main(argv)`` call with stdout captured, or the README's library
pipeline ``ImplicitWeb(parse_poly_expr(f))`` + ``discriminant_locus``.  Every
answer is checked afterwards by ``oracle.py`` in a separate process.

--trace 0 reports the end-to-end metrics.  Their times are taken at the
reference host speed: a fixed kernel timed between requests cancels the
shared host's slow phases (``hostspeed.py``); the report line keeps the
wall-clock values beside them.  --trace 1 replays the requests of
an untraced pass with every layer's entry points wrapped (``tracer.py``) and
reports the per-layer metrics.  The last stdout line is the JSON result; the
lines before it print each metric with its unit, the error rate and the
environment.  See README.md for what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
SETUP_REPEATS = 15
ORACLE_TIMEOUT_S = 120
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "import webpolar.cli; webpolar.cli.build_parser()"
)

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def load_program():
    """Import webpolar from this checkout's src/, never from anywhere else."""
    if not (SRC / "webpolar" / "__init__.py").is_file():
        raise BenchmarkError(f"no webpolar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import webpolar
    import webpolar.cli

    if Path(webpolar.__file__).resolve().parent != (SRC / "webpolar").resolve():
        raise BenchmarkError(f"imported webpolar from {webpolar.__file__}, not from {SRC}")
    return webpolar


def measure_setup(host: HostSpeed, repeats: int = SETUP_REPEATS) -> tuple:
    """Wall times (starts_ns, durations_ns) of fresh interpreters importing the
    CLI and building its parser, the reference kernel timed before each.  One
    unmeasured start first writes the bytecode cache."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC))]
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    starts, durations = array("q"), array("q")
    for _ in range(repeats):
        host.probe()
        began = time.perf_counter_ns()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        durations.append(time.perf_counter_ns() - began)
        starts.append(began)
    host.finish()
    return starts, durations


def issue(program, request: dict):
    """Send one request; returns the program's raw answer."""
    if request["kind"] == "cli":
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = program.cli.main(request["argv"])
        return {"rc": rc, "out": out.getvalue()}
    web = program.ImplicitWeb(program.parse_poly_expr(request["f"], {"x", "y", "p"}))
    return program.discriminant_locus(web)


def as_json(answer) -> dict:
    if isinstance(answer, dict):
        return answer
    return {"terms": [[*exps, coeff] for exps, coeff in sorted(answer.terms().items())]}


def closed_loop(program, requests, seconds: float, min_requests: int, record,
                host: HostSpeed | None = None) -> tuple:
    """Issue requests back to back until ``seconds`` have passed and at least
    ``min_requests`` were answered; with ``host``, the reference kernel is
    timed between requests.  Returns (starts_ns, latencies_ns)."""
    clock = time.perf_counter_ns
    starts, latencies = array("q"), array("q")
    deadline = clock() + int(seconds * 1e9)
    for request in requests:
        began = clock()
        if began >= deadline and len(latencies) >= min_requests:
            break
        if host:
            host.probe_if_due(began)
            began = clock()
        try:
            answer = issue(program, request)
        except Exception as exc:  # recorded and counted as a failed request
            answer = {"exc": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - began)
        starts.append(began)
        record(request, as_json(answer), latencies[-1])
    if host:
        host.finish()
    return starts, latencies


def nearest_rank(ordered, share: float) -> float:
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def input_key(request: dict):
    """What makes two requests the same input: the web polynomial F for
    ``web`` requests (so curves queried on one web count as repeats), else the
    whole request."""
    if request["kind"] == "lib":
        return ("lib", request["f"])
    argv = request["argv"]
    if argv[0] == "web":
        return ("web", argv[argv.index("--f") + 1])
    return tuple(argv)


class AnswerLog:
    """Writes (request, answer) pairs for the oracle and keeps what the
    report needs: an answer digest and the share of repeated inputs."""

    def __init__(self, path: Path | None, digest_count: int, keep_digests: bool = False):
        self.file = open(path, "w", encoding="utf-8") if path else None
        self.digest = hashlib.sha256()
        self.digest_count = digest_count
        self.digests: list = [] if keep_digests else None
        self.count = 0
        self.repeats = 0
        self._seen: set = set()

    def __call__(self, request: dict, answer: dict, latency_ns: int = 0) -> None:
        text = json.dumps(answer, sort_keys=True)
        if self.count < self.digest_count:
            self.digest.update(text.encode())
        if self.digests is not None:
            self.digests.append(hashlib.sha256(text.encode()).digest())
        key = hash(input_key(request))
        self.repeats += key in self._seen
        self._seen.add(key)
        self.count += 1
        if self.file:
            self.file.write(json.dumps({"request": request, "answer": answer}) + "\n")

    def close(self) -> None:
        if self.file:
            self.file.close()


def run_oracle(path: Path) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "oracle.py"), str(path)],
            capture_output=True, text=True, timeout=ORACLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"oracle did not finish within {ORACLE_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchmarkError(f"oracle exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "webpolar").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def timings(setup_ns, latencies_ns) -> dict:
    ordered = sorted(latencies_ns)
    return {
        "throughput_rps": len(ordered) / (sum(ordered) / 1e9),
        "latency_p50_ms": statistics.median(ordered) / 1e6,
        "latency_p90_ms": nearest_rank(ordered, 0.9) / 1e6,
        "setup_s": statistics.median(setup_ns) / 1e9,
    }


def end_to_end(program, args, log: AnswerLog) -> tuple:
    """Untraced closed loop; returns (metrics, requests answered, wall-clock
    timings and host scales for the report).  The metrics are at the
    reference host speed (``hostspeed.py``)."""
    setup_host, loop_host = HostSpeed(), HostSpeed()
    setup_starts, setup_ns = measure_setup(setup_host)
    starts, latencies = closed_loop(program, workloads.stream(args.workload, args.seed),
                                    args.seconds, args.min_requests, log, loop_host)
    values = timings(setup_host.corrected(setup_starts, setup_ns),
                     loop_host.corrected(starts, latencies))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = {
        "timings": timings(setup_ns, latencies),
        "host_scale": {"setup": setup_host.median_scale(), "loop": loop_host.median_scale()},
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, \
        len(latencies), wall


def per_layer(program, args, log: AnswerLog) -> tuple:
    """Each block of requests runs once untraced and once traced, the order
    alternating from block to block so warm-up drift cancels in the tracing
    overhead.  Returns (metrics, requests answered, traced answers identical)."""
    untraced = AnswerLog(None, 0, keep_digests=True)
    totals, spans = tracer.LayerTotals(), tracer.Tracer()
    plain_ns = traced_ns = 0

    def fold(request, answer, latency_ns):
        log(request, answer)
        totals.add(spans.spans, latency_ns)
        spans.spans.clear()

    deadline = time.perf_counter() + args.seconds
    for index, block in enumerate(workloads.blocks(args.workload, args.seed)):
        if time.perf_counter() >= deadline and log.count >= args.min_requests:
            break
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if not traced:
                _, latencies = closed_loop(program, block, 0, len(block), untraced)
                plain_ns += sum(latencies)
                continue
            spans.install()
            try:
                _, latencies = closed_loop(program, block, 0, len(block), fold)
            finally:
                spans.uninstall()
            traced_ns += sum(latencies)
    return totals.metrics(throughput_ratio=plain_ns / traced_ns), log.count, \
        untraced.digests == log.digests


def pin_to_one_cpu() -> int:
    """Keep this process, and the interpreters it starts for ``setup_s``, on
    one CPU, so that the reference kernel runs where the timed work runs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure(program, args, log_path: Path) -> tuple:
    """One run; returns (report, result object)."""
    usable_cpus = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    warmup = next(workloads.blocks(args.workload, args.seed, "warmup"))
    closed_loop(program, warmup, 0, len(warmup), lambda *ignored: None)
    log = AnswerLog(log_path, args.min_requests, keep_digests=bool(args.trace))
    try:
        if args.trace:
            metrics, count, identical = per_layer(program, args, log)
            wall = None
        else:
            (metrics, count, wall), identical = end_to_end(program, args, log), True
    finally:
        log.close()
    verdict = run_oracle(log_path)
    failed = verdict["failed"] + (0 if identical else 1)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": count,
        "samples": count,
        "error_rate": verdict["failed"] / count,
        "repeat_share": log.repeats / count,
        "answers_sha256": log.digest.hexdigest(),
        "traced_answers_identical": identical,
        "wall_clock": wall,
        "oracle_failures": verdict["failures"],
        "env": {**environment(), "usable_cpus": usable_cpus, "pinned_cpu": cpu},
    }
    result = {"correct": failed == 0, "attempted": count, "failed": failed, "metrics": metrics}
    return report, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-requests", type=int, default=MIN_REQUESTS,
                        help="keep issuing until this many requests were answered "
                        "(the smoke test lowers it)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
        OUT_DIR.mkdir(exist_ok=True)
        log_path = OUT_DIR / f"answers-{os.getpid()}.jsonl"
        try:
            report, result = measure(program, args, log_path)
        finally:
            log_path.unlink(missing_ok=True)
            with suppress(OSError):  # another run may still use it
                OUT_DIR.rmdir()
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(f"error_rate: {report['error_rate']} ({result['failed']} of {result['attempted']})")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
