"""Write the default-seed reference outputs that the benchmark's checks compare against.

    python3 bench/capture_reference.py

Run it only on a commit whose outputs are known good: the files under
``bench/reference/`` are the oracle for ``trace-c12`` (trace values and the
smooth/log fit ratio) and ``sweep-cli`` (the exact bytes of every file the
CLI writes).
"""

from __future__ import annotations

import json
import shutil
import tempfile

from run import OUT, import_package


def main() -> None:
    _, workloads = import_package()
    ref = workloads.REFERENCE_DIR
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="capture-", dir=OUT)
    try:
        trace = workloads.TraceC12(workloads.DEFAULT_SEED)
        outs = []
        for op in trace.ops():
            outs.append(op.fn(outs))
        ref.mkdir(exist_ok=True)
        (ref / "trace_c12.json").write_text(json.dumps(trace.reference(outs), indent=1) + "\n")

        sweep = workloads.SweepCli(workloads.DEFAULT_SEED, work)
        sweep.start_pass()
        try:
            outs = [op.fn([]) for op in sweep.ops()]
            if outs != [0] * len(outs):
                raise SystemExit(f"CLI exit codes {outs}")
            for command, files in sweep.reference(outs).items():
                target = ref / "sweep_cli" / command
                target.mkdir(parents=True, exist_ok=True)
                for name, data in files.items():
                    (target / name).write_bytes(data)
        finally:
            sweep.end_pass()
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
