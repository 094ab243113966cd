"""Benchmark of the univoque CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The seed generates one round of CLI commands for the workload (see
workloads.py).  With --trace 0 the benchmark

  * runs the round's commands one at a time, each in a fresh
    ``python -m univoque.cli ... --json`` process with PYTHONPATH=src, for
    as many whole rounds as fit in about S seconds (a closed loop with one
    client; time counted at reference speed, see calibrate.py), and times
    interpreter start plus ``import univoque.cli`` after
    every fourth command (setup_s, the median);
  * runs the round in process, tracing off, in each of two fresh
    interpreters (lib_wall_s: each command at its faster pass, summed).

With --trace 1 it runs that in-process pass twice in fresh interpreters,
once plain and once with every library layer traced, and reports the
per-layer metrics.  Every output is checked against an answer derived
without the package.  The last line of standard output is one JSON object;
the full record of the run, with every command's input sizes, is written
under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from calibrate import calibrate, scale

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_EVERY = 4             # one set-up timing after every fourth command
SETUP_MIN = 9               # at least this many, topped up after the loop
LIB_PASSES = 2              # in-process passes, each in a fresh interpreter
COMMAND_LIMIT_S = 120       # a command running longer counts as failed
LIBPASS_LIMIT_S = 170
COVERAGE_TOLERANCE = 0.01   # |(layer self + cli self) / traced wall - 1|


def _fail(msg: str):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("UVQ_MAX_WORK", None)
    return env


def run_process(argv, env, limit=COMMAND_LIMIT_S):
    """Run one process to completion; return (wall_s, exit code, stdout,
    stderr, max RSS in MiB) with the RSS read from the kernel's rusage."""
    t = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, cwd=ROOT)
    timer = threading.Timer(limit, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        err = p.stderr.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
        p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t
    return (wall, p.returncode, out.decode(), err.decode(),
            usage.ru_maxrss / 1024)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(name, args) -> dict:
    return {
        "workload": name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "loadavg_start": list(os.getloadavg()),
        "invocation": [sys.executable] + sys.argv,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def percentile_tail(times):
    """The highest percentile with at least ten samples above it, as
    (value, percentile, sample count); the maximum when n <= 10."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def lib_pass(cmds_path, tag, env, trace: bool) -> dict:
    out_path = OUT / ("libpass-%s.json" % tag)
    argv = [sys.executable, str(ROOT / "bench" / "libpass.py"),
            str(cmds_path), str(out_path)]
    if trace:
        argv += ["--trace", str(OUT / ("spans-%s" % tag))]
    wall, code, _, err, _ = run_process(argv, env, LIBPASS_LIMIT_S)
    if code != 0:
        _fail("in-process pass failed (exit %d): %s" % (code, err[-2000:]))
    with open(out_path) as f:
        return json.load(f)


def check_lib(cmds, name, res, records) -> int:
    return check_all(cmds, [(i, r["code"], r["stdout"],
                             {"pass": name, "wall_s": r["wall_s"],
                              "raw_wall_s": r["raw_wall_s"]})
                            for i, r in enumerate(res["results"])], records)


def check_all(cmds, results, records) -> int:
    """Check each (command index, code, stdout); append per-command
    records; return the number of wrong outputs."""
    failed = 0
    for i, code, stdout, extra in results:
        try:
            why = workloads.check(cmds[i], code, stdout)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            why = "malformed output: %r" % (exc,)
        failed += why is not None
        records.append(dict(extra, args=cmds[i]["args"],
                            attrs=cmds[i]["attrs"], code=code,
                            ok=why is None, why=why))
    return failed


def end_to_end(tag, args, cmds, cmds_path, env, records):
    setup, setup_raw, loop = [], [], []
    cal = [calibrate()]
    spent = [0.0]               # scaled seconds of the loop so far

    def timed(argv):
        """Run argv; return its result with the wall time scaled by the
        calibrations taken just before and just after it."""
        res = run_process(argv, env)
        after = calibrate()
        scaled = scale(res[0], cal[0], after)
        cal[0] = after
        spent[0] += scaled
        return (scaled,) + res

    def probe_setup():
        scaled, raw = timed([sys.executable, "-c", "import univoque.cli"])[:2]
        setup.append(scaled)
        setup_raw.append(raw)

    # whole rounds only, so that every command of the round is weighted
    # alike: stop once another round would overshoot by over half a round.
    # Time is counted at reference speed, so the number of rounds does not
    # follow the host's drift.
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for cid, cmd in enumerate(cmds):
            scaled, wall, code, out, err, rss = timed(
                [sys.executable, "-m", "univoque.cli"] + cmd["args"])
            loop.append((cid, code, out, {
                "pass": "cli", "round": rounds, "wall_s": scaled,
                "raw_wall_s": wall, "rss_mib": rss, "stderr": err[-500:]}))
            if len(loop) % SETUP_EVERY == 0:
                probe_setup()
        rounds += 1
        if spent[0] + spent[0] / rounds / 2 >= args.seconds:
            break
    loop_wall = time.perf_counter() - t0
    while len(setup) < SETUP_MIN:
        probe_setup()

    failed = check_all(cmds, loop, records)
    libs = [lib_pass(cmds_path, tag, env, trace=False)
            for _ in range(LIB_PASSES)]
    for lib in libs:
        failed += check_lib(cmds, "lib", lib, records)
    # each command at its faster pass: a burst of host load inflates one
    # pass, rarely both at the same command
    lib_wall = sum(min(lib["results"][i]["wall_s"] for lib in libs)
                   for i in range(len(cmds)))
    cli = [r for r in records if r["pass"] == "cli"]
    times = [r["wall_s"] for r in cli]
    correct = sum(1 for r in cli if r["ok"])
    tail, pct, n = percentile_tail(times)
    metrics = {
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail,
        "cmds_per_s": correct / sum(times),
        "peak_rss_mb": max(r["rss_mib"] for r in cli),
        "lib_wall_s": lib_wall,
        "setup_s": statistics.median(setup),
    }
    raw = [r["raw_wall_s"] for r in cli]
    info = {"cmd_tail_percentile": pct, "cli_samples": n,
            "rounds": rounds, "round_scaled_s": spent[0] / rounds,
            "loop_wall_s": loop_wall,
            "setup_samples_s": setup,
            "unscaled": {
                "cmd_p50_s": statistics.median(raw),
                "cmd_tail_s": percentile_tail(raw)[0],
                "cmds_per_s": correct / sum(raw),
                "lib_wall_s": [lib["raw_wall_s"] for lib in libs],
                "setup_s": statistics.median(setup_raw)},
            "fail_ratio": failed / (len(loop) + LIB_PASSES * len(cmds))}
    return metrics, len(loop) + LIB_PASSES * len(cmds), failed, info


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(t: dict, import_s: float, overhead: float) -> dict:
    """The per-layer metrics from a reduced trace (tracer.Tracer.reduce)."""
    calls, self_s, incl = t["calls"], t["self_s"], t["incl_s"]
    c, caches = t["counters"], t["caches"]

    def hit_ratio(name):
        h = caches.get(name, {"hits": 0, "misses": 0})
        return _ratio(h["hits"], h["hits"] + h["misses"])

    def layer_self(layer):
        return sum(v for k, v in self_s.items()
                   if k.startswith(layer + "."))

    m = {}
    for fn in ("polynomials.evaluate", "polynomials.poly_gcd",
               "polynomials.sturm_chain", "algebraic.sign_at",
               "algebraic.sturm_count", "algebraic.reduce_mod",
               "algebraic.refine", "expansions.solve_base",
               "expansions.value", "words.lex_compare", "words.shift",
               "characterization.classify"):
        m[fn + ".calls"] = calls.get(fn, 0)
        m[fn + ".self_s"] = self_s.get(fn, 0.0)
    for fn in ("expansions.greedy_expansion",
               "expansions.quasi_greedy_expansion", "expansions.kl_constant",
               "characterization.find_m", "approximator.approximate",
               "approximator.construct_gamma",
               "oracle.enumerate_expansions"):
        m[fn + ".self_s"] = self_s.get(fn, 0.0)
    for fn in ("algebraic.floor_of", "words.ep_sequence"):
        m[fn + ".calls"] = calls.get(fn, 0)
    for layer in ("polynomials", "algebraic", "words", "characterization",
                  "expansions", "approximator", "oracle"):
        m[layer + ".self_s"] = layer_self(layer)
    m["polynomials.sturm_chain.hit_ratio"] = \
        hit_ratio("polynomials.sturm_chain")
    m["polynomials.squarefree_part.hit_ratio"] = \
        hit_ratio("polynomials.squarefree_part")
    m["polynomials.cache_entries"] = sum(
        v["currsize"] for k, v in caches.items()
        if k.startswith("polynomials."))
    m["polynomials.max_degree"] = c.get("polynomials.max_degree", 0)
    m["algebraic.sign_at.zero_ratio"] = _ratio(
        c.get("algebraic.sign_at.zeros", 0), calls.get("algebraic.sign_at", 0))
    m["algebraic.refine.halvings"] = c.get("algebraic.refine.halvings", 0.0)
    m["algebraic.endpoint_bits_max"] = c.get("algebraic.endpoint_bits_max", 0)
    m["expansions.poly_from_sequence.max_degree"] = \
        c.get("expansions.poly_from_sequence.max_degree", 0)
    m["expansions.digits_per_s"] = _ratio(
        c.get("expansions.digits", 0),
        incl.get("expansions.greedy_expansion", 0.0)
        + incl.get("expansions.quasi_greedy_expansion", 0.0))
    m["expansions.kl_constant.prefix_length"] = \
        c.get("expansions.kl_constant.prefix_length", 0)
    m["characterization.classify.shifts_checked"] = \
        c.get("characterization.classify.shifts_checked", 0)
    m["approximator.gap_bits_max"] = c.get("approximator.gap_bits_max", 0)
    nodes = c.get("oracle.nodes", 0)
    m["oracle.nodes"] = nodes
    m["oracle.viable_ratio"] = _ratio(c.get("oracle.viable", 0), nodes)
    m["oracle.sign_tests_per_child"] = _ratio(t["sign_in_oracle"], nodes)
    m["cli.self_s"] = t["cli_self"]
    m["cli.import_s"] = import_s
    m["trace.overhead_ratio"] = overhead
    m["trace.coverage"] = t["coverage"]
    m["trace.spans"] = t["spans"]
    return m


def traced(tag, args, cmds, cmds_path, env, records):
    plain = lib_pass(cmds_path, tag, env, trace=False)
    tr = lib_pass(cmds_path, tag + "-traced", env, trace=True)
    failed = check_lib(cmds, "lib", plain, records) + \
        check_lib(cmds, "traced", tr, records)
    metrics = per_layer(tr["trace"], tr["import_s"],
                        tr["wall_s"] / plain["wall_s"])
    coverage_ok = abs(tr["trace"]["coverage"] - 1) <= COVERAGE_TOLERANCE
    info = {"coverage_tolerance": COVERAGE_TOLERANCE,
            "coverage_ok": coverage_ok,
            "lib_wall_s": plain["wall_s"], "traced_wall_s": tr["wall_s"],
            "calls": tr["trace"]["calls"], "self_s": tr["trace"]["self_s"],
            "caches": tr["trace"]["caches"],
            "fail_ratio": failed / (2 * len(cmds))}
    if not coverage_ok:
        failed += 1
    return metrics, 2 * len(cmds), failed, info


def run_workload(name, args, spec, env) -> dict:
    """Run one workload, write its record, print its metrics and return
    the result object."""
    meta = metadata(name, args)
    cmds = workloads.generate(name, args.seed)
    tag = "%s-%d" % (name, args.seed)
    cmds_path = OUT / ("cmds-%s.json" % tag)
    cmds_path.write_text(json.dumps(cmds))
    records = []
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, info = run(tag, args, cmds, cmds_path, env,
                                           records)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if sorted(m["name"] for m in listed) != sorted(metrics):
        _fail("metrics differ from BENCHMARK.json")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in listed}}
    (OUT / ("run-%s-trace%d.json" % (tag, args.trace))).write_text(
        json.dumps({"meta": meta, "info": info, "result": result,
                    "commands": records}, indent=1))
    print("== %s" % name)
    for m in listed:
        print("%-45s %14.6g %s" % (m["name"], metrics[m["name"]], m["unit"]))
    for key in ("fail_ratio", "cmd_tail_percentile", "cli_samples", "rounds",
                "coverage_ok", "coverage_tolerance"):
        if key in info:
            print("%-45s %14s" % (key, info[key]))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "univoque" / "cli.py").is_file():
        _fail("no univoque sources under %s" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = _env()
    code = run_process([sys.executable, "-c", "import univoque.cli"], env)[1]
    if code != 0:
        _fail("cannot import univoque.cli")

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, spec, env)))
        return 0
    # every workload in turn; metric names get the workload as a prefix
    results = {name: run_workload(name, args, spec, env)
               for name in workloads.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, k): v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
