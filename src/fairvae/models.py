"""Model zoo: feature backbones, dual encoders, prediction heads, VAE pair.

A ``ModelBundle`` owns every parameter of one model instance. Its config
names a step of the method ladder, and the step decides which parts exist:
a single-encoder task model (``plain``), plus a discriminator on the shared
representation (``adv``), plus a bias-aware encoder and attribute predictor
(``dadv``), plus the semi-supervised VAE (``fairvae``). Labels and attributes
are binary by construction (``CLASSES``).

Parameters are initialized from a per-parameter RNG derived from
(bundle seed, sha256 of the parameter name), so two bundles sharing a seed
initialize their common sub-networks identically regardless of which other
parts exist.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .data import ConfigError

BACKBONE_KINDS = ("lr", "dnn", "fm")

# the method ladder's steps; each adds parts to the one before it
LADDER = ("plain", "adv", "dadv", "fairvae")

CLASSES = 2  # of every label and attribute: head widths, VAE slots, metrics

CHECKPOINT_MAGIC = b"FVAE\x01"


def is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# field annotation -> (check, what the value must be)
_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "int": (is_int, "an int"),
    "float": (is_number, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list": (lambda v: isinstance(v, list), "a list"),
}


def require(cfg, key: str, ok, expected: str) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``ok(cfg.<key>)`` holds."""
    value = getattr(cfg, key)
    if not ok(value):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")


def check_types(cfg) -> None:
    """Each field annotated bool, int, float, str or list holds that type: a
    bool is not an int, and a float field also takes an int. Annotations are
    read as strings, as every module here imports ``annotations``."""
    for f in fields(cfg):
        if f.type in _TYPES:
            require(cfg, f.name, *_TYPES[f.type])


@dataclass(kw_only=True)
class ArchitectureSettings:
    """The architecture settings, declared once: the experiment config, a
    method spec and the checkpoint header (``BundleConfig``) all extend it."""

    hidden_dim: int = 256
    fm_factors: int = 16
    latent_dim: int = 32
    grl_lambda: float = 0.4
    dropout_rate: float = 0.2

    def __post_init__(self):
        check_types(self)  # every field, a subclass's included
        for key in ("hidden_dim", "fm_factors", "latent_dim"):
            require(self, key, lambda v: v >= 1, ">= 1")
        require(self, "grl_lambda", lambda v: v >= 0, ">= 0")
        require(self, "dropout_rate", lambda v: 0 <= v < 1, "in [0, 1)")


def settings(obj, base) -> dict:
    """The fields ``base`` declares, read off ``obj`` (an instance of a
    subclass of it) without converting them."""
    return {f.name: getattr(obj, f.name) for f in fields(base)}


@dataclass
class BundleConfig(ArchitectureSettings):
    input_dim: int
    backbone: str = "dnn"
    method: str = "fairvae"
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        require(self, "input_dim", lambda v: v >= 1, ">= 1")
        if self.method not in LADDER:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {LADDER}")


def _param_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, *words]))


class _Registry:
    """Name -> Parameter map enforcing unique names."""

    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, ad.Parameter] = {}

    def make(self, name: str, shape, init: str = "glorot",
             trainable: bool = True) -> ad.Parameter:
        if name in self.params:
            raise ValueError(f"duplicate parameter name: {name}")
        rng = _param_rng(self.seed, name)
        if init == "zeros":
            value = np.zeros(shape)
        elif init == "glorot":
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else shape[0]
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            value = rng.uniform(-limit, limit, shape)
        elif init == "projection":
            value = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            raise ValueError(f"unknown init: {init}")
        p = ad.Parameter(value, name, trainable=trainable)
        self.params[name] = p
        return p


class Dense:
    def __init__(self, reg: _Registry, name: str, d_in: int, d_out: int):
        self.weight = reg.make(f"{name}.weight", (d_in, d_out))
        self.bias = reg.make(f"{name}.bias", (d_out,), init="zeros")

    def __call__(self, x) -> ad.Node:
        return ad.dense(x, self.weight, self.bias)


class Backbone:
    """Feature encoder mapping inputs to the shared hidden dimension.

    lr   elementwise weights times input, then a fixed random projection to
         the hidden size (identity when the input already matches it);
    dnn  two dense+ReLU layers;
    fm   learned linear embedding concatenated with the factorization-machine
         pairwise-interaction vector, affinely mapped to the hidden size.
    """

    def __init__(self, reg: _Registry, prefix: str, kind: str, d: int,
                 hidden: int, fm_factors: int):
        if kind not in BACKBONE_KINDS:
            raise ValueError(f"unknown backbone kind: {kind!r}")
        self.kind = kind
        self.d = d
        self.hidden = hidden
        if kind == "lr":
            self.scale = reg.make(f"{prefix}.scale", (d,))
            self.proj = None
            if d != hidden:
                self.proj = reg.make(f"{prefix}.proj", (d, hidden),
                                     init="projection", trainable=False)
        elif kind == "dnn":
            self.layer1 = Dense(reg, f"{prefix}.layer1", d, hidden)
            self.layer2 = Dense(reg, f"{prefix}.layer2", hidden, hidden)
        else:
            self.linear = Dense(reg, f"{prefix}.linear", d, fm_factors)
            self.factors = reg.make(f"{prefix}.factors", (d, fm_factors))
            self.out = Dense(reg, f"{prefix}.out", 2 * fm_factors, hidden)

    def forward(self, x) -> ad.Node:
        x = ad.as_node(x)
        if x.value.ndim != 2 or x.value.shape[1] != self.d:
            raise ad.ShapeMismatch(
                f"backbone expects n x {self.d} inputs, got {x.value.shape}"
            )
        if self.kind == "lr":
            r = ad.mul(x, self.scale)
            return r if self.proj is None else ad.matmul(r, self.proj)
        if self.kind == "dnn":
            return ad.relu(self.layer2(ad.relu(self.layer1(x))))
        xv = ad.matmul(x, self.factors)
        interaction = ad.scale(
            ad.sub(ad.square(xv), ad.matmul(ad.square(x), ad.square(self.factors))),
            0.5,
        )
        return self.out(ad.concat_columns([self.linear(x), interaction]))


class Head:
    """Softmax classifier head: one affine layer onto the classes, so the
    task head's logits on r = r_f + r_b split over the two encoders."""

    def __init__(self, reg: _Registry, name: str, d_in: int):
        self.out = Dense(reg, f"{name}.out", d_in, CLASSES)

    def __call__(self, x) -> ad.Node:
        return ad.softmax(self.out(x))


class VaePair:
    """Gaussian encoder (tanh mean, softplus scale) and affine decoder, which
    reads two attribute slots of ``CLASSES`` columns each and the latent."""

    def __init__(self, reg: _Registry, d: int, latent_dim: int):
        self.mu_layer = Dense(reg, "vae.mu", d, latent_dim)
        self.sigma_layer = Dense(reg, "vae.sigma", d, latent_dim)
        self.decoder = Dense(reg, "vae.decoder", 2 * CLASSES + latent_dim, d)

    def latent(self, x) -> tuple[ad.Node, ad.Node]:
        x = ad.as_node(x)
        return ad.tanh(self.mu_layer(x)), ad.softplus(self.sigma_layer(x))

    def decode(self, z_tilde_slot, z_hat_slot, h) -> ad.Node:
        return self.decoder(ad.concat_columns(
            [ad.as_node(z_tilde_slot), ad.as_node(z_hat_slot), h]))


class ModelBundle:
    """All parameters of one model instance: the parts of its ladder step,
    absent ones None."""

    def __init__(self, cfg: BundleConfig):
        self.cfg = cfg
        reg = _Registry(cfg.seed)
        self._registry = reg
        self.bias_free = Backbone(reg, "bias_free", cfg.backbone, cfg.input_dim,
                                  cfg.hidden_dim, cfg.fm_factors)
        self.task_head = Head(reg, "task_head", cfg.hidden_dim)
        self.disc_head = self.bias_aware = self.attr_head = self.vae = None
        if cfg.method != "plain":
            self.disc_head = Head(reg, "disc_head", cfg.hidden_dim)
        if cfg.method in ("dadv", "fairvae"):
            self.bias_aware = Backbone(reg, "bias_aware", cfg.backbone,
                                       cfg.input_dim, cfg.hidden_dim, cfg.fm_factors)
            self.attr_head = Head(reg, "attr_head", cfg.hidden_dim)
        if cfg.method == "fairvae":
            self.vae = VaePair(reg, cfg.input_dim, cfg.latent_dim)

    def parameters(self) -> list[ad.Parameter]:
        return [self._registry.params[name]
                for name in sorted(self._registry.params)]

    def trainable_parameters(self) -> list[ad.Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            value = state[p.name]
            if value.shape != p.value.shape:
                raise ad.ShapeMismatch(
                    f"{p.name}: checkpoint shape {value.shape} does not match "
                    f"model shape {p.value.shape}"
                )
            p.value[...] = value


def encode(bundle: ModelBundle, x, training: bool = False, rng=None):
    """Run both encoders; returns (r_f, r_b, r) with r = r_f + r_b."""
    rate = bundle.cfg.dropout_rate
    r_f = ad.dropout(bundle.bias_free.forward(x), rate, training=training, rng=rng)
    if bundle.bias_aware is None:
        return r_f, None, r_f
    r_b = ad.dropout(bundle.bias_aware.forward(x), rate, training=training, rng=rng)
    return r_f, r_b, ad.add(r_f, r_b)


def predict_heads(bundle: ModelBundle, r_f, r_b, r):
    """Attribute predictor on r_b, reversed discriminator on r_f, task head on r."""
    z_hat = bundle.attr_head(r_b) if bundle.attr_head is not None else None
    z_tilde = None
    if bundle.disc_head is not None:
        z_tilde = bundle.disc_head(
            ad.gradient_reversal(r_f, bundle.cfg.grl_lambda))
    y_hat = bundle.task_head(r)
    return z_hat, z_tilde, y_hat


def bias_free_forward(bundle: ModelBundle, x) -> tuple[ad.Node, ad.Node]:
    """The deployment path in eval mode, one pass of the bias-free encoder:
    returns its representation and the task head's probabilities on it, as
    nodes that track no gradients."""
    with ad.no_grad():
        r_f = bundle.bias_free.forward(x)
        return r_f, bundle.task_head(r_f)


def predict_test(bundle: ModelBundle, x) -> ad.Node:
    """Deployment-path prediction: task head on the bias-free representation only."""
    return bias_free_forward(bundle, x)[1]


# ---------------------------------------------------------------------------
# checkpoint io: magic, u32 header length, JSON header, raw little-endian
# float64 payloads in header order; the header's payload_sha256 is the
# sha256 of those payload bytes


def save_bundle(bundle: ModelBundle, path, config_hash: str = "",
                extra: dict | None = None) -> None:
    """Write a checkpoint; its header's seed is the bundle's."""
    params = bundle.parameters()
    payload = b"".join(np.ascontiguousarray(p.value, dtype="<f8").tobytes()
                       for p in params)
    header = {
        "config": asdict(bundle.cfg),
        "config_hash": config_hash,
        "seed": bundle.cfg.seed,
        "extra": extra or {},
        "params": [
            {"name": p.name, "shape": list(p.value.shape), "trainable": p.trainable}
            for p in params
        ],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


class CheckpointError(ValueError):
    """A file that is not a checkpoint, one that another version of fairvae
    wrote, or a damaged or truncated one."""


def _read_exact(fh, path, size: int, what: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise CheckpointError(f"{path}: truncated checkpoint: {what} needs "
                              f"{size} bytes, the file holds {len(buf)}")
    return buf


def _parse_header(path, blob: bytes) -> tuple[dict, ModelBundle, list]:
    """Decode the JSON header, build its bundle and list its (name, shape)
    pairs. A config whose keys are not ``BundleConfig``'s fields is reported
    with those keys, as another version of fairvae may have written it; any
    other failure is reported as a damaged header. Both errors name the
    file."""
    try:
        header = json.loads(blob.decode())
        keys, expected = set(header["config"]), {f.name for f in fields(BundleConfig)}
        if keys != expected:
            raise CheckpointError(  # a flipped byte in a key reads the same
                f"{path}: the checkpoint header is damaged, or the file was "
                "written by another version of fairvae (unknown config keys "
                f"{sorted(keys - expected)}, missing config keys "
                f"{sorted(expected - keys)}); retrain the model with this version")
        bundle = ModelBundle(BundleConfig(**header["config"]))
        listed = [(meta["name"], tuple(meta["shape"])) for meta in header["params"]]
        if listed != [(p.name, p.value.shape) for p in bundle.parameters()]:
            raise ValueError("its parameter list does not match its config")
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # incl. Unicode/JSON errors
        raise CheckpointError(f"{path}: the checkpoint header is damaged: "
                              f"{type(exc).__name__}: {exc}") from None
    return header, bundle, listed


def load_bundle(path) -> tuple[ModelBundle, dict]:
    """Read a checkpoint; a damaged header, a truncated file, bytes past the
    last parameter, or parameter bytes whose sha256 is not the header's
    ``payload_sha256`` (or a header without one) raise ``CheckpointError``
    naming the file."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint")
        (hlen,) = struct.unpack("<I", _read_exact(fh, path, 4, "the header length"))
        header, bundle, listed = _parse_header(
            path, _read_exact(fh, path, hlen, "the header"))
        if "payload_sha256" not in header:
            raise CheckpointError(
                f"{path}: the checkpoint header holds no payload_sha256, so its "
                "parameters cannot be checked; the file is damaged or was "
                "written by an older version of fairvae; retrain the model "
                "with this version")
        state, digest = {}, hashlib.sha256()
        for name, shape in listed:
            count = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fh, path, 8 * count, f"parameter {name}")
            digest.update(buf)
            state[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        leftover = len(fh.read())
        if leftover:
            raise CheckpointError(
                f"{path}: {leftover} bytes follow the last parameter "
                f"{listed[-1][0]}; the header accounts for "
                f"{fh.tell() - leftover} bytes, the file holds {fh.tell()}")
    if digest.hexdigest() != header["payload_sha256"]:
        raise CheckpointError(
            f"{path}: the parameter bytes do not match the header's "
            "payload_sha256; the file is damaged; retrain the model")
    bundle.load_state_arrays(state)
    return bundle, header
