"""One benchmark pass in a fresh interpreter.

Reads a JSON request on stdin and writes one JSON line on stdout.

``{"mode": "setup", "src": ..., "presets": [...]}`` imports qfold, builds
the presets, prints ``ready`` and exits; the caller times it from spawn.

``{"mode": "pass", "src": ..., "ops": [...], "trace": bool, "keep": bool}``
runs the operations one after another.  A ``cli`` operation calls
``qfold.cli.main`` with its argv and captures what it prints; a ``check``
operation calls one ``qfold.checks`` suite.  Each operation is timed on
its own; ``keep`` returns the full outputs for verification, otherwise
only their digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _run_op(op):
    if op["kind"] == "cli":
        from qfold.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(op["argv"]))
        return code, buf.getvalue(), None
    from qfold.checks import SUITES
    result = SUITES[op["suite"]](**op["kwargs"])
    return (0 if result.ok else 1), str(result), result.instances


def _pass(request):
    tracer = None
    if request["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    ops = []
    t_start = time.perf_counter()
    for op in request["ops"]:
        t0 = time.perf_counter()
        code, text, instances, error = 1, "", None, None
        try:
            if tracer is not None and op["kind"] == "check":
                with tracer.span(f"checks.{op['suite']}"):
                    code, text, instances = _run_op(op)
            else:
                code, text, instances = _run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer is not None and op["kind"] == "check":
            tracer.counts[f"checks.{op['suite']}.instances"] += instances or 0
        data = text.encode()
        record = {"s": seconds, "code": code, "error": error,
                  "bytes": len(data), "digest": hashlib.sha256(data).hexdigest(),
                  "instances": instances}
        if request["keep"]:
            record["output"] = text
        ops.append(record)
    wall = time.perf_counter() - t_start
    out = {"ops": ops, "wall_s": wall,
           "rss_mb": _peak_rss_mb(),
           "caches": _cache_sizes()}
    if tracer is not None:
        out["trace"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "total_s": dict(tracer.total_s),
            "counts": dict(tracer.counts), "maxima": dict(tracer.maxima),
            "covered_s": tracer.covered_s, "hook_s": tracer.hook_s,
            "absent": tracer.absent, "shuffle_hit_ratio": tracer.cache_ratio(),
        }
    return out


def _peak_rss_mb():
    """Peak resident memory of this process.  VmHWM belongs to the process
    image; ru_maxrss would also count the parent's memory at spawn time."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cache_sizes():
    """Sizes of qfold's module-level memo caches, where they still exist."""
    out = {}
    gram = sys.modules.get("qfold.gram")
    laurent = sys.modules.get("qfold.laurent")
    rootsys = sys.modules.get("qfold.rootsys")
    if isinstance(getattr(gram, "_SHUFFLE_CACHE", None), dict):
        out["shuffle"] = len(gram._SHUFFLE_CACHE)
    if isinstance(getattr(laurent, "_QFACT_CACHE", None), dict):
        out["qfact"] = len(laurent._QFACT_CACHE)
    info = getattr(getattr(rootsys, "positive_roots", None), "cache_info", None)
    if info is not None:
        out["positive_roots"] = info().currsize
    return out


def main():
    request = json.loads(sys.stdin.read())
    sys.path.insert(0, request["src"])
    import qfold  # noqa: F401
    if request["mode"] == "setup":
        from qfold.presets import get_folding, get_preset
        for name in request["presets"]:
            (get_folding if "->" in name else get_preset)(name)
        print("ready", flush=True)
        return 0
    real_stdout = sys.stdout
    result = _pass(request)
    real_stdout.write(json.dumps(result) + "\n")
    real_stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
