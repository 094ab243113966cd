"""One in-process pass over a round of CLI commands, in a fresh interpreter.

Usage: python3 libpass.py COMMANDS.json RESULT.json [--trace SPANS_PREFIX]

Imports ``univoque.cli`` (timed on its own), then runs every command through
the click entry point in this one process, so the library's caches carry
over from command to command as they do for a long-lived library user.
With --trace the layer tracer is installed after the import and its spans
are written to SPANS_PREFIX.{json,bin}.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from calibrate import calibrate, scale


def main(argv) -> int:
    cmds_path, out_path = argv[0], argv[1]
    spans_prefix = argv[3] if len(argv) > 3 and argv[2] == "--trace" \
        else None
    with open(cmds_path) as f:
        cmds = json.load(f)

    cal = calibrate()
    t0 = time.perf_counter()
    import click
    from univoque.cli import main as cli_main
    import_s = time.perf_counter() - t0
    cal_after = calibrate()
    import_s = scale(import_s, cal, cal_after)
    cal = cal_after

    tracer = None
    if spans_prefix is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results, windows = [], {}
    for cid, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_command(cid)
            before = tracer.counters["oracle.parents"]
        code = 0
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli_main.main(args=cmd["args"], prog_name="univoque",
                              standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.exceptions.ClickException as exc:
                code = exc.exit_code
            except Exception as exc:  # a crash is a wrong answer, not a stop
                code = "exception: %r" % (exc,)
        t1 = time.perf_counter()
        windows[cid] = (t, t1)
        cal_after = calibrate()
        rec = {"wall_s": scale(t1 - t, cal, cal_after), "raw_wall_s": t1 - t,
               "code": code, "stdout": out.getvalue()}
        cal = cal_after
        if tracer is not None:
            # oracle children examined: parents times (cap + 1) digits
            parents = tracer.counters["oracle.parents"] - before
            tracer.counters["oracle.nodes"] += \
                parents * (cmd["attrs"].get("cap", 0) + 1)
        results.append(rec)

    payload = {"import_s": import_s, "results": results,
               "wall_s": sum(r["wall_s"] for r in results),
               "raw_wall_s": sum(r["raw_wall_s"] for r in results)}
    if tracer is not None:
        payload["trace"] = tracer.reduce(windows)
        tracer.dump(spans_prefix)
    with open(out_path, "w") as f:
        json.dump(payload, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
