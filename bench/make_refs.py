"""Write refs/seed_commit.json: the outputs the benchmark's checks compare to.

    PYTHONPATH=src python3 bench/make_refs.py

The references record the program at the commit that introduced the
benchmark.  Regenerate them only from that commit: a reference taken
from a changed program would let the change check itself.
"""

import json
import os
import subprocess

import workloads


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True, check=True).stdout.strip()
    refs = {"commit": commit, "seed": workloads.DEFAULT_SEED}
    for name, workload in workloads.WORKLOADS.items():
        if workload.summarize is None:
            continue
        ops = workload.make_inputs(workloads.DEFAULT_SEED)
        outputs = [workload.run(op) for op in ops]
        refs[name] = workload.summarize(ops, outputs)
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        fh.write(_one_item_per_line(refs) + "\n")


def _one_item_per_line(value, depth: int = 0) -> str:
    """JSON with one list item or object member per line, for readable diffs."""
    pad = " " * (depth + 1)
    if isinstance(value, dict) and depth < 2:
        items = [f"{pad}{json.dumps(k)}: {_one_item_per_line(v, depth + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad[:-1] + "}"
    if isinstance(value, list) and depth < 2:
        items = [pad + json.dumps(v) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad[:-1] + "]"
    return json.dumps(value)


if __name__ == "__main__":
    main()
