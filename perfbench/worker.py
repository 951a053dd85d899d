"""One pass of a workload in a fresh interpreter.

Reads a JSON spec on stdin and prints one JSON result line on stdout.
The pass imports ``deformzeros.cli`` first, with nothing but ``sys`` and
``time`` loaded, so ``setup_s`` is what a command-line user pays on top of
interpreter start.  It then runs each op through ``deformzeros.cli.main``,
judges its outputs with the workload's oracle and hashes them, all inside
the timed span.  With ``"trace": true`` the layer wrappers are installed
before the timed span and removed after it.

Spec keys: src (directory holding the deformzeros package), scratch
(directory for op outputs), ops (from workloads.make_ops), tau_star,
trace, import_only.
"""

import sys
import time


def main() -> int:
    raw = sys.stdin.read()
    t0 = time.perf_counter()
    import deformzeros.cli  # noqa: F401  (the set-up being measured)

    setup_s = time.perf_counter() - t0

    import hashlib
    import io
    import json
    import resource
    import shutil
    import tempfile
    import traceback
    from contextlib import redirect_stderr, redirect_stdout
    from pathlib import Path

    import workloads
    from tracer import Tracer

    spec = json.loads(raw)
    src = Path(spec["src"]).resolve()
    pkg = Path(sys.modules["deformzeros"].__file__).resolve()
    if src not in pkg.parents:
        raise RuntimeError(f"deformzeros was imported from {pkg}, not from {src}")
    if spec.get("import_only"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = spec["ops"]
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=spec["scratch"]))
    out_dirs = []
    for i in range(len(ops)):
        (pass_dir / f"op{i}").mkdir()
        out_dirs.append(str(pass_dir / f"op{i}"))
    tracer = Tracer() if spec.get("trace") else None
    if tracer is not None:
        tracer.install()
    cli = sys.modules["deformzeros.cli"]
    results = []

    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op, out_dir in zip(ops, out_dirs):
        argv = [a.replace("{out}", out_dir) for a in op["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        rec = {"key": " ".join(op["argv"]), "ok": False, "digest": None, "accuracy": None, "error": None}
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            text = stdout.getvalue()
            files = {
                p.relative_to(out_dir).as_posix(): p.read_bytes()
                for p in sorted(Path(out_dir).rglob("*"))
                if p.is_file()
            }
            rec["accuracy"] = workloads.CHECKS[op["check"]](code, text, files, spec["tau_star"])
            h = hashlib.sha256(f"exit={code}\n".encode() + text.encode())
            for name, data in files.items():
                h.update(f"\n{name}:{len(data)}\n".encode() + data)
            rec["digest"] = h.hexdigest()
            rec["ok"] = True
        except Exception as exc:  # an op that fails is counted, never fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
            tail = stderr.getvalue().strip().splitlines()[-3:]
            print(f"op failed: {rec['key']}\n{traceback.format_exc()}" + "\n".join(tail), file=sys.stderr)
        results.append(rec)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    margins = [r["accuracy"] for r in results if r["accuracy"] is not None]
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = {
            "layers": tracer.summarize(),
            "counters": dict(tracer.counters),
            "track_zero_s": tracer.inclusive_s("deformation.track_zero"),
            "missing": tracer.missing,
        }
    shutil.rmtree(pass_dir)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "peak_rss_mib": peak_rss_mib,
                "accuracy": min(margins) if margins else None,
                "ops": results,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
