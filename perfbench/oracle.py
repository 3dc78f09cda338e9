"""Computations made apart from the program, and the checks that use them.

Nothing here calls ``fairvae``: the checkpoint file is parsed from its byte
layout, the test file is encoded from the vocabularies and constants stored
in the checkpoint, the bias-free encoder and the task head run as plain numpy
matrix products, and the metrics are recomputed from their definitions. Each
check raises ``CheckFailed`` naming what disagreed.
"""

from __future__ import annotations

import csv
import json
import math
import struct

import numpy as np

from adultgen import COLUMNS

MAGIC = b"FVAE\x01"
TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- checkpoint and test file ------------------------------------------------


def read_checkpoint(path) -> tuple[dict, dict]:
    """(header, name -> float64 array) from the checkpoint's byte layout:
    magic, u32 header length, JSON header, little-endian float64 payloads."""
    with open(path, "rb") as fh:
        blob = fh.read()
    require(blob[:len(MAGIC)] == MAGIC, f"{path}: bad checkpoint magic")
    (hlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start:start + hlen].decode())
    offset = start + hlen
    params = {}
    for meta in header["params"]:
        count = int(np.prod(meta["shape"])) if meta["shape"] else 1
        params[meta["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(meta["shape"])
        offset += 8 * count
    require(offset == len(blob), f"{path}: {len(blob) - offset} stray bytes")
    return header, params


def read_adult(path) -> list[list[str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("|"):
                rows.append([f.strip() for f in line.split(",")])
    return rows


def encode_test(rows, stats: dict):
    """(x, y, z) for Adult rows under the train statistics of a checkpoint."""
    cols = list(zip(*rows))
    names = [name for name, _ in COLUMNS]
    blocks = []
    for index, (name, vocab) in enumerate(COLUMNS):
        if name == "income" or (name == "sex" and not stats["include_sensitive"]):
            continue
        values = cols[index]
        if vocab is None:
            mean, std = stats["num_mean"][name], stats["num_std"][name]
            v = np.array([mean if s == "?" else float(s) for s in values])
            blocks.append(((v - mean) / std)[:, None])
        else:
            seen = stats["cat_vocab"][name]
            where = {c: i for i, c in enumerate(seen)}
            mode = stats["cat_mode"][name]
            idx = np.array([where.get(mode if s == "?" else s, -1) for s in values])
            block = np.zeros((len(values), len(seen)))
            known = idx >= 0
            block[np.nonzero(known)[0], idx[known]] = 1.0
            blocks.append(block)
    x = np.hstack(blocks)
    labels = cols[names.index("income")]
    y = np.array([s.rstrip(".") == ">50K" for s in labels], dtype=int)
    sex = cols[names.index("sex")]
    mode = stats["cat_mode"]["sex"]
    z = np.array([(mode if s == "?" else s) == "Female" for s in sex], dtype=int)
    return x, y, z


# -- forward pass and metrics ------------------------------------------------


def bias_free_forward(header: dict, params: dict, x):
    """(bias-free representation, task probabilities) of an eval-mode pass."""
    kind = header["config"]["backbone"]
    p = lambda name: params[f"bias_free.{name}"]
    if kind == "dnn":
        h = np.maximum(x @ p("layer1.weight") + p("layer1.bias"), 0.0)
        rep = np.maximum(h @ p("layer2.weight") + p("layer2.bias"), 0.0)
    elif kind == "lr":
        rep = x * p("scale")
        if "bias_free.proj" in params:
            rep = rep @ p("proj")
    else:
        xv = x @ p("factors")
        pair = 0.5 * (xv * xv - (x * x) @ (p("factors") * p("factors")))
        lin = x @ p("linear.weight") + p("linear.bias")
        rep = np.concatenate([lin, pair], axis=1) @ p("out.weight") + p("out.bias")
    logits = rep @ params["task_head.out.weight"] + params["task_head.out.bias"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return rep, e / e.sum(axis=1, keepdims=True)


def auc(y, score) -> float:
    """Mann-Whitney count: positives above negatives, ties counted half."""
    neg = np.sort(score[y == 0])
    pos = score[y == 1]
    below = np.searchsorted(neg, pos, side="left")
    tied = np.searchsorted(neg, pos, side="right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (len(pos) * len(neg)))


def test_metrics(y, z, probs) -> dict:
    pred = probs.argmax(axis=1)
    rate = lambda mask: float((pred[mask] == 1).mean())
    return {
        "accuracy": float((pred == y).mean()),
        "auc": auc(y, probs[:, 1]),
        "dp_gap": abs(rate(z == 0) - rate(z == 1)),
        "opp_gap": abs(rate((z == 0) & (y == 1)) - rate((z == 1) & (y == 1))),
        "n_group0": int((z == 0).sum()), "n_group1": int((z == 1).sum()),
    }


def check_metrics(reported: dict, expected: dict, what: str) -> None:
    for key, want in expected.items():
        got = float(reported[key])
        require(close(got, want), f"{what}: {key} is {got!r}, expected {want!r}")


# -- training outputs ----------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        require(fh.readline().startswith("# kind="), f"{path}: no header comment")
        return list(csv.DictReader(fh))


def split_counts(n: int, val_frac: float, ratio: float) -> tuple[int, int]:
    rest = n - int(math.floor(val_frac * n))
    n_lab = int(math.floor(ratio * rest))
    return n_lab, rest - n_lab


def expected_steps(method: str, n_lab: int, n_unl: int, batch: int, epochs: int,
                   pseudo: int = 0) -> int:
    """Optimisation steps of one cell, from the split counts."""
    per_epoch = lambda a, b: -(-max(a, b) // batch)
    if method == "plain":
        return epochs * -(-(n_lab + n_unl) // batch)
    if method.endswith("_st"):
        # predictor round on the split, then the base method with the
        # adopted pseudo-labels moved into the labeled set
        return epochs * (per_epoch(n_lab, n_unl)
                         + per_epoch(n_lab + pseudo, n_unl - pseudo))
    return epochs * per_epoch(n_lab, n_unl)


TERMS_PLUS = ("attr_pred", "adversarial", "orthogonality", "task",
              "reconstruction", "kl", "log_prior")
TERMS_MINUS = ("entropy_attr", "entropy_adv")


def check_log(path, cell: str, seed: int) -> int:
    """Check every step record of a JSON-lines log; returns the step count."""
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        records = [json.loads(line) for line in fh]
    require(head["cell"] == cell and head["seed"] == seed,
            f"{path}: header names {head.get('cell')}/{head.get('seed')}")
    for i, rec in enumerate(records):
        require(rec["step"] == i, f"{path}: step {rec['step']} at line {i + 2}")
        signed = (sum(rec[t] for t in TERMS_PLUS)
                  - sum(rec[t] for t in TERMS_MINUS))
        scale = sum(abs(rec[t]) for t in TERMS_PLUS + TERMS_MINUS)
        require(abs(rec["total"] - signed) <= TOL * max(1.0, scale),
                f"{path}: step {i} total {rec['total']!r} but its terms "
                f"sum to {signed!r}")
    return len(records)


AGG_METRICS = ("accuracy", "auc", "dp_gap", "opp_gap", "probe_accuracy")


def check_aggregates(raw: list[dict], agg: list[dict]) -> None:
    groups: dict = {}
    for row in raw:
        groups.setdefault((row["backbone"], row["method"], row["ratio"]), []).append(row)
    require(len(agg) == len(groups),
            f"aggregate has {len(agg)} rows for {len(groups)} groups")
    for row in agg:
        members = groups[(row["backbone"], row["method"], row["ratio"])]
        ok = [m for m in members if m["status"] == "OK"]
        require(int(row["n_ok"]) == len(ok), f"aggregate n_ok of {row}")
        for metric in AGG_METRICS:
            values = [float(m[metric]) for m in ok]
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            for key, want in ((metric, mean), (metric + "_std", std)):
                got = float(row[key])
                require(close(got, want),
                        f"aggregate {key} of {row['backbone']}/{row['method']} "
                        f"is {got!r}, mean of raw rows gives {want!r}")


def check_export(path, rep, y, z, pred) -> int:
    """The export file holds one row per test sample equal to the forward."""
    with open(path, encoding="utf-8") as fh:
        require(fh.readline().startswith("# config_hash="), f"{path}: no header")
        columns = fh.readline().strip().split(",")
        text = fh.read()
    dim = rep.shape[1]
    require(columns == [f"r_{i}" for i in range(dim)]
            + ["attribute", "label", "predicted"], f"{path}: columns {columns[:3]}...")
    lines = text.splitlines()
    require(len(lines) == len(y), f"{path}: {len(lines)} rows for {len(y)} test rows")
    values = np.array(",".join(lines).split(","), dtype=float).reshape(len(y), dim + 3)
    bad = ~np.isclose(values[:, :dim], rep, rtol=TOL, atol=TOL)
    if bad.any():
        raise CheckFailed(f"{path}: {int(bad.sum())} representation values differ "
                          f"from the forward, first in row {int(np.argwhere(bad)[0][0])}")
    for col, want, name in ((dim, z, "attribute"), (dim + 1, y, "label"),
                            (dim + 2, pred, "predicted")):
        wrong = int((values[:, col] != want).sum())
        require(wrong == 0, f"{path}: {wrong} rows with a wrong {name}")
    return len(lines)
