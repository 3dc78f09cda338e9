#!/usr/bin/env python3
"""The census-income experiment pipeline, end to end.

With the canonical Adult files under data/adult/ (see scripts/fetch_adult.py)
this runs a small slice of the full protocol; without them it falls back to a
bundled synthetic generator that mimics the file format, so the pipeline is
demonstrable offline. Either way: ingest, split, mask attributes, train a
plain baseline and the semi-supervised fair model, evaluate, and show where
the runner writes its artifacts.

    python demos/04_census_experiments.py [OUTPUT_DIR]

With OUTPUT_DIR the outputs are kept there; without it they go to a
temporary directory that is removed when the demo exits.

The full reproduction is `fairvae run` with the defaults (3 backbones x 6
methods x 3 label ratios x 5 seeds at 50 epochs); this demo trims everything
down to finish in about a minute.
"""

import contextlib
import os
import sys
import tempfile
from pathlib import Path

from fairvae import ExperimentConfig, run_experiments
from fairvae.synthetic import write_adult_like


def demo(workdir: Path, keep: bool) -> None:
    adult_dir = Path(os.environ.get("ADULT_DATA_DIR", "data/adult"))
    train_path = adult_dir / "adult.data"
    test_path = adult_dir / "adult.test"
    if train_path.exists() and test_path.exists():
        print(f"using the canonical census files from {adult_dir}")
        epochs = 5  # a taste; the real protocol uses 50
    else:
        print("canonical census files not found; generating a synthetic")
        print("Adult-format stand-in (run scripts/fetch_adult.py for the real data)")
        train_path = workdir / "train.csv"
        test_path = workdir / "test.csv"
        write_adult_like(train_path, test_path, n_train=1500, n_test=600, seed=1)
        epochs = 8

    config = ExperimentConfig(
        train_path=str(train_path),
        test_path=str(test_path),
        output_dir=str(workdir / "results"),
        backbones=["lr", "dnn"],
        methods=["plain", "dadv", "fairvae"],
        label_ratios=[0.2],
        seeds=[0],
        epochs=epochs,
        hidden_dim=64,
        latent_dim=16,
    )

    table = run_experiments(config)
    print()
    print(table.render_text())

    print("raw per-seed rows, aggregated means, failure records, training logs")
    print("and checkpoints:")
    for entry in sorted((workdir / "results").iterdir()):
        print(f"  {entry}")
    if keep:
        print("\nevaluate any checkpoint later with:")
        print(f"  fairvae eval --checkpoint {workdir}/results/checkpoints/<cell>.ckpt "
              f"--test {test_path}")
    else:
        print("\nthese outputs are removed on exit; pass a directory to keep them:")
        print("  python demos/04_census_experiments.py OUTPUT_DIR")


if __name__ == "__main__":
    keep = len(sys.argv) > 1
    if keep:
        Path(sys.argv[1]).mkdir(parents=True, exist_ok=True)
    with (contextlib.nullcontext(sys.argv[1]) if keep else
          tempfile.TemporaryDirectory(prefix="fairvae_demo_")) as root:
        demo(Path(root).resolve(), keep)
