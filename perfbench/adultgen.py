"""Width-matched Adult-format data for the benchmark.

The columns, their order and the category names follow the UCI Adult census
files, with the real cardinalities: workclass 8, education 16,
marital-status 7, occupation 14, relationship 6, race 5, native-country 41,
plus six numeric columns. Once ``sex`` is dropped the one-hot encoding is
103 wide, the width of the paper's feature vectors, so the benchmark
multiplies matrices of the paper's shapes.

Several columns depend on ``sex`` (relationship, marital status, occupation,
hours) and income depends on ``sex`` and marriage too, so the leakage probe
finds the attribute and parity gaps are not zero. Every category appears in
the first rows of the training file, so the loader's vocabulary, and with it
the encoded width, never depends on the seed.
"""

from __future__ import annotations

import os

import numpy as np

WORKCLASS = ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay", "Never-worked"]
EDUCATION = ["Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th",
             "11th", "12th", "HS-grad", "Some-college", "Assoc-voc",
             "Assoc-acdm", "Bachelors", "Masters", "Prof-school", "Doctorate"]
MARITAL = ["Married-civ-spouse", "Divorced", "Never-married", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse"]
OCCUPATION = ["Tech-support", "Craft-repair", "Other-service", "Sales",
              "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
              "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
              "Transport-moving", "Priv-house-serv", "Protective-serv",
              "Armed-Forces"]
RELATIONSHIP = ["Wife", "Own-child", "Husband", "Not-in-family",
                "Other-relative", "Unmarried"]
RACE = ["White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"]
COUNTRY = ["United-States", "Cambodia", "England", "Puerto-Rico", "Canada",
           "Germany", "Outlying-US(Guam-USVI-etc)", "India", "Japan", "Greece",
           "South", "China", "Cuba", "Iran", "Honduras", "Philippines",
           "Italy", "Poland", "Jamaica", "Vietnam", "Mexico", "Portugal",
           "Ireland", "France", "Dominican-Republic", "Laos", "Ecuador",
           "Taiwan", "Haiti", "Columbia", "Hungary", "Guatemala", "Nicaragua",
           "Scotland", "Thailand", "Yugoslavia", "El-Salvador",
           "Trinadad&Tobago", "Peru", "Hong", "Holand-Netherlands"]

# column order of the Adult files; None marks a numeric column
COLUMNS = [
    ("age", None), ("workclass", WORKCLASS), ("fnlwgt", None),
    ("education", EDUCATION), ("education-num", None),
    ("marital-status", MARITAL), ("occupation", OCCUPATION),
    ("relationship", RELATIONSHIP), ("race", RACE), ("sex", ["Female", "Male"]),
    ("capital-gain", None), ("capital-loss", None), ("hours-per-week", None),
    ("native-country", COUNTRY), ("income", ["<=50K", ">50K"]),
]
FEATURE_COLUMNS = [c for c in COLUMNS if c[0] not in ("sex", "income")]
CANONICAL_ROWS = (32_561, 16_281)


def encoded_width() -> int:
    """One-hot width with ``sex`` dropped, counted from the vocabularies here."""
    return sum(1 if vocab is None else len(vocab) for _, vocab in FEATURE_COLUMNS)


def _pick(rng, n, probs):
    p = np.asarray(probs, dtype=float)
    return rng.choice(len(p), size=n, p=p / p.sum())


def _rows(rng, n: int, cover: bool) -> list[str]:
    female = rng.random(n) < 0.33
    age = np.clip(rng.normal(38.5, 13.5, n), 17, 90).astype(int)
    edu = _pick(rng, n, [1, 2, 4, 8, 6, 12, 15, 5, 130, 90, 18, 14, 65, 22, 7, 5])
    married = rng.random(n) < np.where(female, 0.18, 0.62)
    marital = np.where(married, 0, _pick(rng, n, [0, 28, 68, 6, 6, 2, 0.2]))
    marital[married & (rng.random(n) < 0.002)] = 6
    occ_f = _pick(rng, n, [3, 2, 20, 11, 9, 14, 2, 6, 30, 1, 1, 2, 1, 0.05])
    occ_m = _pick(rng, n, [3, 18, 7, 12, 14, 13, 6, 8, 6, 4, 7, 0.1, 3, 0.05])
    occupation = np.where(female, occ_f, occ_m)
    # relationship follows sex and marital status, as in the census files
    other = _pick(rng, n, [0, 30, 0, 50, 5, 15])
    relationship = np.where(married, np.where(female, 0, 2), other)
    race = _pick(rng, n, [85, 3, 1, 1, 10])
    country = _pick(rng, n, [900] + [2] * 20 + [20] + [1.5] * 19)
    workclass = _pick(rng, n, [70, 8, 3.5, 3, 6.5, 4, 0.05, 0.05])
    hours = np.clip(np.rint(rng.normal(np.where(female, 36.5, 42.5), 11, n)),
                    1, 99).astype(int)
    gain = np.where(rng.random(n) < 0.08, rng.integers(100, 20_000, n), 0)
    loss = np.where(rng.random(n) < 0.045, rng.integers(150, 2500, n), 0)
    fnlwgt = rng.integers(12_285, 1_000_000, n)
    edu_num = edu + 1
    # income follows education, age, hours and capital gain; the direct and
    # marriage-borne dependence on sex is kept small so that a model that
    # learns the task also wins the program's validation criterion
    # (accuracy minus parity gap) over a constant predictor
    logit = (-7.75 + 0.45 * edu_num + 0.03 * np.minimum(age, 60) + 0.02 * hours
             + 0.2 * married + gain / 3000 - 0.1 * female
             + rng.normal(0, 0.4, n))
    income = (logit > 0).astype(int)
    cats = [workclass, occupation, country]
    for col in cats:  # missing cells, as in the census files
        col[rng.random(n) < 0.02] = -1
    if cover:
        # the first rows cycle through every category of every column
        for col, size in ((workclass, 8), (edu, 16), (occupation, 14),
                          (race, 5), (country, 41)):
            col[:size] = np.arange(size)
        marital[:7] = np.arange(7)
        relationship[:6] = np.arange(6)
        edu_num = edu + 1
        income[:2] = [0, 1]
        female[:2] = [True, False]
    lines = []
    for i in range(n):
        lines.append(", ".join([
            str(age[i]),
            WORKCLASS[workclass[i]] if workclass[i] >= 0 else "?",
            str(fnlwgt[i]), EDUCATION[edu[i]], str(edu_num[i]),
            MARITAL[marital[i]],
            OCCUPATION[occupation[i]] if occupation[i] >= 0 else "?",
            RELATIONSHIP[relationship[i]], RACE[race[i]],
            "Female" if female[i] else "Male",
            str(gain[i]), str(loss[i]), str(hours[i]),
            COUNTRY[country[i]] if country[i] >= 0 else "?",
            ">50K" if income[i] else "<=50K",
        ]))
    return lines


def write_pair(train_path, test_path, n_train: int, n_test: int,
               seed: int) -> None:
    """Write an Adult-format train/test pair, deterministic from ``seed``."""
    if n_train < 41:
        raise ValueError("the training file needs at least 41 rows to hold "
                         "every category")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAD01]))
    train = _rows(rng, n_train, cover=True)
    test = _rows(rng, n_test, cover=False)
    _write(train_path, "\n".join(train) + "\n")
    _write(test_path, "|1x3 Cross validator\n"
           + "\n".join(r + "." for r in test) + "\n")


def _write(path, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
