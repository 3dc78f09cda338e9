"""Self-test: every workload at tiny sizes, then every check against a
deliberately corrupted output.

    python3 perfbench/run.py --self-test

Each workload runs one untraced and one traced round with all its checks;
both must be correct, with no failed operation and every metric present
(and, untraced, above zero).
Then, on the traced round's outputs, each corruption below is applied to a
copy-backed file, the workload's own check must reject it with the expected
message, and the file is restored.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import struct

import layertrace
import oracle
import workloads
from oracle import CheckFailed

SEED = 3


def _edit_lines(path, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(edit(lines))


def _csv_value(column: str, delta: float):
    """Add ``delta`` to ``column`` of the first data row of a results CSV."""
    def edit(lines):
        header = lines[1].rstrip("\n").split(",")
        cells = lines[2].rstrip("\n").split(",")
        i = header.index(column)
        cells[i] = repr(float(cells[i]) + delta)
        return lines[:2] + [",".join(cells) + "\n"] + lines[3:]
    return edit


def _log_term(lines):
    rec = json.loads(lines[1])
    rec["task"] += 0.5
    return [lines[0], json.dumps(rec) + "\n"] + lines[2:]


def _export_value(lines):
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    return lines[:5] + [",".join(cells)] + lines[6:]


def _export_label(lines):
    cells = lines[5].rstrip("\n").split(",")
    cells[-1] = str(1 - int(cells[-1]))
    return lines[:5] + [",".join(cells) + "\n"] + lines[6:]


def _zero_task_head(path) -> None:
    """Zero the task head in a checkpoint: the model predicts one class."""
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    (hlen,) = struct.unpack_from("<I", blob, len(oracle.MAGIC))
    header = json.loads(blob[len(oracle.MAGIC) + 4:len(oracle.MAGIC) + 4 + hlen])
    offset = len(oracle.MAGIC) + 4 + hlen
    for meta in header["params"]:
        size = 8 * math.prod(meta["shape"])
        if meta["name"].startswith("task_head.out."):
            blob[offset:offset + size] = bytes(size)
        offset += size
    with open(path, "wb") as fh:
        fh.write(blob)


def _corruptions(wl):
    """(label, file to corrupt, corruption, round index, expected message)."""
    root = wl.cfg.output_dir
    cell = f"{wl.backbones[0]}_{wl.methods[-1]}_r{workloads.RATIO}_s{SEED}"
    log = os.path.join(root, "logs", cell + ".jsonl")
    cases = [
        ("one raw CSV metric perturbed", os.path.join(root, "results_raw.csv"),
         _csv_value("dp_gap", 1e-3), 0, ": dp_gap is"),
        ("one aggregated CSV metric perturbed",
         os.path.join(root, "results_agg.csv"), _csv_value("accuracy", 1e-3), 0,
         "aggregate accuracy"),
        ("one logged loss term changed", log, _log_term, 0, "terms sum"),
        ("one logged step dropped", log, lambda ls: ls[:-1], 0, "logged steps"),
        ("a later round's raw CSV differs from round 0",
         os.path.join(root, "results_raw.csv"), lambda ls: ls + ["\n"], 1,
         "differs from round 0"),
    ]
    if isinstance(wl, workloads.TrainWide):
        cases += [
            ("task head zeroed in the checkpoint", wl.ckpt, "ckpt", 0,
             ": accuracy is"),
            ("printed eval metric perturbed", None, None, 0, "eval: dp_gap"),
            ("one exported value changed", wl.csv, _export_value, 0,
             "representation values differ"),
            ("one exported predicted label flipped", wl.csv, _export_label, 0,
             "wrong predicted"),
            ("one exported row dropped", wl.csv, lambda ls: ls[:-1], 0,
             "rows for"),
        ]
    return cases


def _corruption_demos(wl, tracer) -> int:
    failures = 0
    for label, path, edit, index, expect in _corruptions(wl):
        backup = None
        saved = getattr(wl, "printed", None)
        if path is None:
            report = json.loads(saved[0])
            report["dp_gap"] += 1e-3
            wl.printed = (json.dumps(report), saved[1])
        else:
            backup = path + ".orig"
            shutil.copyfile(path, backup)
            if edit == "ckpt":
                _zero_task_head(path)
            else:
                _edit_lines(path, edit)
        try:
            wl.check_round(tracer, index)
            outcome, ok = "NOT DETECTED", False
        except CheckFailed as exc:
            ok = expect in str(exc)
            outcome = f"rejected: {exc}"
        finally:
            if backup is not None:
                os.replace(backup, path)
            if saved is not None:
                wl.printed = saved
        failures += not ok
        print(f"  {'ok  ' if ok else 'FAIL'} {label}: {outcome[:150]}")
    wl.check_round(tracer, 0)  # the restored outputs pass again
    return failures


def main(run_workload) -> int:
    failures = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, info, wl, tracer = run_workload(name, SEED, 0, trace, size="tiny")
            want = layertrace.layer_metric_units() if trace else None
            names = set(result["metrics"])
            ok = (result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0
                  and all(math.isfinite(m["value"]) for m in result["metrics"].values())
                  and (names == set(want) if trace else
                       all(m["value"] > 0 for m in result["metrics"].values())))
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(names)}")
            if trace:
                failures += _corruption_demos(wl, tracer)
            wl.close()
    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0
