"""Deterministic synthetic datasets.

Two generators:

* an Adult-schema CSV pair so the full ingestion/training/reporting pipeline
  can run end to end without the real census files;
* a low-dimensional "shortcut" dataset whose sensitive attribute is copied
  into one feature coordinate, used to verify that adversarial training
  actually scrubs attribute information from learned representations.
"""

from __future__ import annotations

import numpy as np

from .data import Samples

_WORKCLASS = ["Federal-gov", "Private", "Self-emp"]
_EDUCATION = ["Bachelors", "Doctorate", "HS-grad", "Masters"]
_MARITAL = ["Divorced", "Married", "Never-married"]
_OCCUPATION = ["Craft-repair", "Exec-managerial", "Sales", "Tech-support"]
_RACE = ["Asian", "Black", "White"]
_COUNTRY = ["Mexico", "United-States"]


def _adult_like_rows(n: int, rng: np.random.Generator) -> list[str]:
    rows = []
    for _ in range(n):
        female = rng.random() < 0.4
        sex = "Female" if female else "Male"
        age = int(rng.integers(18, 80))
        workclass = _WORKCLASS[rng.integers(len(_WORKCLASS))]
        fnlwgt = int(rng.integers(20_000, 400_000))
        edu_idx = int(rng.integers(len(_EDUCATION)))
        education = _EDUCATION[edu_idx]
        education_num = 8 + edu_idx * 2
        marital = _MARITAL[rng.integers(len(_MARITAL))]
        # several columns correlate with sex, as in the real census data,
        # so the sensitive attribute stays inferable after its column is
        # dropped and fairness gaps are non-trivial
        if female:
            occupation = _OCCUPATION[rng.choice([2, 3, 0, 1],
                                                p=[0.4, 0.3, 0.15, 0.15])]
            relationship = "Wife" if marital == "Married" else "Not-in-family"
            hours = int(rng.integers(18, 52))
        else:
            occupation = _OCCUPATION[rng.choice([0, 1, 2, 3],
                                                p=[0.35, 0.35, 0.15, 0.15])]
            relationship = "Husband" if marital == "Married" else "Not-in-family"
            hours = int(rng.integers(25, 60))
        race = _RACE[rng.integers(len(_RACE))]
        capital_gain = int(rng.integers(0, 5000)) if rng.random() < 0.1 else 0
        capital_loss = int(rng.integers(0, 2000)) if rng.random() < 0.05 else 0
        country = _COUNTRY[rng.integers(len(_COUNTRY))]
        # income depends on education, hours, age and (unfairly) on sex
        logit = (-6.0 + 0.25 * education_num + 0.05 * hours + 0.02 * age
                 - 0.8 * female + rng.normal(0, 0.8))
        income = ">50K" if 1 / (1 + np.exp(-logit)) > 0.5 else "<=50K"
        # occasional missing cells, like the real files
        if rng.random() < 0.03:
            workclass = "?"
        if rng.random() < 0.03:
            occupation = "?"
        rows.append(", ".join(map(str, [
            age, workclass, fnlwgt, education, education_num, marital,
            occupation, relationship, race, sex, capital_gain, capital_loss,
            hours, country, income,
        ])))
    return rows


def write_adult_like(train_path, test_path, n_train: int = 600,
                     n_test: int = 300, seed: int = 0) -> None:
    """Write a synthetic Adult-schema train/test CSV pair."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA17]))
    with open(train_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_adult_like_rows(n_train, rng)) + "\n")
    with open(test_path, "w", encoding="utf-8") as fh:
        fh.write("|1x3 Cross validator\n")
        # the canonical test file suffixes labels with a period
        rows = [r + "." for r in _adult_like_rows(n_test, rng)]
        fh.write("\n".join(rows) + "\n")


def make_shortcut_samples(n: int, seed: int) -> Samples:
    """Samples with 4 features whose attribute is encoded in coordinate 2.

    The coordinate carries the attribute plus Gaussian noise (a clean copy
    would let a discriminator saturate and stall the adversarial game), and
    the task label depends on two signal coordinates plus the attribute
    itself, so an unconstrained model profits from encoding the attribute
    while a debiased model must not.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C07]))
    x = rng.standard_normal((n, 4))
    z = (rng.random(n) < 0.5).astype(int)
    signed = 2.0 * z - 1.0
    x[:, 2] = signed + 0.5 * rng.standard_normal(n)
    score = x[:, 0] + x[:, 1] + 0.5 * signed + 0.3 * rng.standard_normal(n)
    y = (score > 0).astype(int)
    return Samples(x, y, z)
