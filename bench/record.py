"""Record the result digest of every chunk of the named workloads.

    python3 bench/record.py screen_pool train_2k

Writes bench/expected/<workload>.json. Run it only when the program's
outputs are meant to change; the benchmark counts any other difference as a
failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, ROOT, load_program, run_op, slot_key, work_dir


def record(name: str) -> dict[str, str]:
    from workloads import WORKLOADS, Env

    workload = WORKLOADS[name]
    work = work_dir()
    try:
        env = Env(ROOT, work)
        workload.prepare(env)
        digests = {}
        for chunk in range(workload.chunks):
            for kind in workload.kinds:
                key = slot_key(chunk, kind)
                op = run_op(workload, env, chunk, kind, None)
                if op["problems"]:
                    raise RuntimeError(f"{name} {key}: {op['problems']}")
                digests[key] = op["digest"]
                print(f"{name} {key}: {op['digest']} ({op['seconds']:.2f} s)", flush=True)
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names: list[str]) -> int:
    load_program()
    out = BENCH / "expected"
    out.mkdir(exist_ok=True)
    for name in names:
        digests = record(name)
        (out / f"{name}.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
