"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the source tree, the `feketelab` CLI invocations to run in
order, for each the set-up function whose first return ends its set-up
and whether it is timed, and whether to trace.  Prints one JSON object:
run_s (from the first import to the end of the last timed command),
setup_s and solve_s summed over the timed commands, peak_rss_mb at that
point, every command's exit code and, when traced, the per-layer summary
of the timed commands.  Untimed commands run after the clock stops.
"""

import json
import sys
import time

T0 = time.perf_counter()

import resource  # noqa: E402


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from feketelab import bishop, cli, discs
    from feketelab import equilibrium as eq

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    modules = {"equilibrium": eq, "bishop": bishop, "discs": discs}
    marks = {}

    def mark_setup_end(fn):
        def marked(*args, **kw):
            result = fn(*args, **kw)
            marks.setdefault("setup_end", time.perf_counter())
            return result

        return marked

    for module, name in {tuple(c["setup_fn"].split(".")) for c in spec["commands"] if c["setup_fn"]}:
        setattr(modules[module], name, mark_setup_end(getattr(modules[module], name)))

    setup_s = solve_s = 0.0
    timed = [c for c in spec["commands"] if c["timed"]]
    codes = []
    for command in timed:
        marks.clear()
        start = time.perf_counter()
        codes.append(cli.main(command["argv"]))
        end = time.perf_counter()
        split = marks.get("setup_end", start)
        setup_s += split - start
        solve_s += end - split
    out = {
        "run_s": time.perf_counter() - T0,
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(spec["spans"])
        out["layers"] = tracer.summary()
    codes += [cli.main(c["argv"]) for c in spec["commands"] if not c["timed"]]
    out["exit_codes"] = codes
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
