"""One benchmark run in a fresh process.

Usage: ``python3 child.py SPEC.json RESULT.json``. SPEC holds ``calls``, a
list of ``corehier`` argument lists run in order through
``corehier.cli.main``, and ``trace``. The result records when ``import
corehier`` returned (on the system-wide monotonic clock, so the parent can
subtract its spawn time) and the speed right after it, the wall time and
exit code of each call, the speed samples, the peak resident memory and, when traced, the spans and
the measured cost of one span.

Speed samples: the host's speed drifts by tens of percent within seconds.
While the calls run, a timer interrupts the process every
``SAMPLE_INTERVAL_S`` and times a fixed pure-Python kernel in the signal
handler, which runs between two bytecodes of corehier. Dividing the calls'
time (minus the kernel's) by the mean kernel time cancels most of the drift.
In a traced run each sample is charged to the span it fired in and left out
of that span's self time.
"""

import os
import sys
import time

if __name__ == "__main__":
    # Linux carries the spawning process's peak memory into ru_maxrss across
    # exec, so the run happens in a fork of this still small interpreter,
    # whose count starts afresh. Forking before numpy loads keeps it
    # single-threaded.
    pid = os.fork()
    if pid:
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

import corehier  # noqa: E402, F401  # set-up ends when this import returns

IMPORT_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import corehier.cli  # noqa: E402

import tracing  # noqa: E402

SAMPLE_INTERVAL_S = 0.1
IMPORT_SPEED_SAMPLES = 5  # kernel timings right after the import, to scale the set-up time


def kernel() -> float:
    """Seconds taken by a fixed kernel of a few ms: dict, str, int and sort work."""
    start = time.perf_counter()
    table = {i: str(i) for i in range(10_000)}
    acc = 0
    for key, text in table.items():
        acc += key * key % 7 + len(text)
    sorted(table.values(), reverse=True)
    return time.perf_counter() - start


def run(calls: list[list[str]], tracer: tracing.Tracer | None) -> tuple[list[int], list[float], list[float]]:
    codes: list[int] = []
    durations: list[float] = []
    samples: list[float] = []

    def sample(signum, frame) -> None:
        seconds = kernel()
        samples.append(seconds)
        if tracer is not None:
            tracer.exclude(seconds)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        for argv in calls:
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = corehier.cli.main(argv)
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        code = corehier.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an escaped traceback is a failed call
                traceback.print_exc()
                code = -1
            durations.append(time.perf_counter() - start)
            codes.append(code)
            if code not in (0, 4):
                break  # later calls read this call's output
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    samples.append(kernel())  # at least one sample, however short the calls
    return codes, durations, samples


def main() -> None:
    import_kernel_s = statistics.median(kernel() for _ in range(IMPORT_SPEED_SAMPLES))
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    codes, durations, samples = run(spec["calls"], tracer) if spec["calls"] else ([], [], [])
    result = {
        "import_done": IMPORT_DONE,
        "import_kernel_s": import_kernel_s,
        "durations": durations,
        "samples": samples,
        "exit_codes": codes,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "span_cost_s": tracing.span_cost() if tracer else 0.0,
    }
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
