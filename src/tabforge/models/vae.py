"""The variational autoencoder family over encoded rows.

Three variants share one architecture (ReLU MLP encoder to (mu, log
variance), ReLU MLP decoder to one Dense over the row width, then
`decoder_heads`: tanh alpha, softmax mode indicator, softmax categorical):

* tvae   - numeric reconstruction is a Gaussian NLL with one learnable std
           (delta) per numeric column, clamped >= 1e-3;
* stvae  - drops delta, numeric reconstruction is plain squared error,
           which is what makes the decoder body shareable across tables;
* stvaem - stvae plus per-column signature embeddings concatenated to every
           input row (constant within a table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabforge.data import Table
from tabforge.nn import tensor as T
from tabforge.nn.functional import cross_entropy_logits, kl_std_normal
from tabforge.nn.layers import Dense, Net, ReLU
from tabforge.nn.optim import Adam
from tabforge.nn.tensor import Tensor
from tabforge.split import name_embedding
from tabforge.transform import ColumnTransformer, decode_batches

from tabforge.models.ctgan import ModelError

VARIANTS = ("tvae", "stvae", "stvaem")
DELTA_FLOOR = 1e-3


@dataclass
class VaeConfig:
    latent: int
    hidden: tuple[int, int]
    sig_dim: int  # stvaem only; 0 reduces stvaem to stvae
    lr: float
    batch: int
    # Reconstruction weight against the KL term.  The original TVAE formula
    # effectively upweights numeric reconstruction by 1/(2 sigma^2) through
    # its learnable column stds; with plain MSE that pressure must come from
    # an explicit factor (1.0 recovers the textbook ELBO).
    recon_weight: float

    def __post_init__(self):
        if self.recon_weight <= 0:
            raise ModelError(f"model.recon_weight must be > 0, got {self.recon_weight}")
        for name in ("latent", "batch"):
            if getattr(self, name) < 1:
                raise ModelError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.sig_dim < 0:
            raise ModelError(f"model.sig_dim must be >= 0, got {self.sig_dim}")


@dataclass
class VaeModel:
    transformer: ColumnTransformer
    variant: str  # one of VARIANTS: the kind of the run that built it
    encoder: Net
    decoder: Net
    config: VaeConfig
    delta: Tensor | None = None  # tvae only: per-numeric-column std
    signatures: np.ndarray | None = None  # stvaem only: (sig_width,) constant

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown VAE variant {self.variant!r}")
        if (self.delta is not None) != (self.variant == "tvae"):
            raise ModelError("delta present iff variant is tvae")
        if (self.signatures is not None) != (self.variant == "stvaem"):
            raise ModelError("signatures present iff variant is stvaem")

    @property
    def row_width(self) -> int:
        return self.transformer.total_width

    def tensors(self) -> dict[str, Tensor]:
        """Every tensor by checkpoint name (live, not copies)."""
        out = {f"enc.{k}": v for k, v in self.encoder.tensors().items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.tensors().items()})
        if self.delta is not None:
            out["delta"] = self.delta
        return out

    def segments(self) -> dict[str, tuple[tuple[str, int], ...]]:
        out = {f"enc.{k}": v for k, v in self.encoder.param_segments.items()}
        out.update({f"dec.{k}": v for k, v in self.decoder.param_segments.items()})
        return out

    def optimizer(self) -> Adam:
        return Adam(list(self.tensors().items()), lr=self.config.lr)

    def clamp_delta(self) -> None:
        if self.delta is not None:
            np.maximum(self.delta.data, DELTA_FLOOR, out=self.delta.data)


def stvaem_signatures(transformer: ColumnTransformer, dim: int) -> np.ndarray:
    """Concatenated per-column name embeddings, in encoded span order.

    Identical for every row of a table; each column's vector hashes its name.
    """
    parts = [
        name_embedding(transformer.schema[span.column].name, max(dim, 8))[:dim].astype(np.float32)
        for span in transformer.spans
    ]
    if not parts or dim == 0:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(parts)


def build_vae(
    transformer: ColumnTransformer,
    variant: str,
    config: VaeConfig,
    seed: int,
    dtype=np.float32,
) -> VaeModel:
    row_w = transformer.total_width
    sig = None
    sig_w = 0
    if variant == "stvaem":
        sig = stvaem_signatures(transformer, config.sig_dim)
        sig_w = len(sig)
    in_w = row_w + sig_w
    h1, h2 = config.hidden
    latent = config.latent

    enc_layers = [
        Dense(in_w, h1),
        ReLU(),
        Dense(h1, h2),
        ReLU(),
        Dense(h2, 2 * latent),  # mu | log variance
    ]
    dec_layers = [
        Dense(latent, h1),
        ReLU(),
        Dense(h1, h2),
        ReLU(),
        Dense(h2, row_w),
    ]

    rng = np.random.default_rng(seed)
    encoder = Net(enc_layers, rng, dtype=dtype)
    decoder = Net(dec_layers, rng, dtype=dtype)
    delta = None
    if variant == "tvae":
        delta = Tensor(np.full(len(transformer.alphas), 0.1, dtype=dtype), requires_grad=True)

    return VaeModel(transformer, variant, encoder, decoder, config, delta, sig)


def decoder_heads(raw: Tensor, transformer: ColumnTransformer) -> tuple[Tensor, list[Tensor]]:
    """The decoder's per-column heads over its last Dense output: tanh for
    each alpha, softmax for each mode indicator and categorical block.

    Returns the encoded row and each block's pre-softmax logits, in
    `transformer.blocks` order (the reconstruction cross entropy reads them).
    """
    blocks = transformer.blocks
    logits = [raw[:, start:stop] for start, stop in blocks]
    return T.span_heads(raw, transformer.alphas, blocks, raw), logits


def vae_forward(model: VaeModel, batch: np.ndarray, rng: np.random.Generator):
    """Encode, reparameterize, decode.  Returns (mu, sigma, heads, logits, z),
    with `logits` the pre-softmax block logits of `decoder_heads`."""
    dtype = model.encoder.dtype
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2 or batch.shape[1] != model.row_width:
        raise ModelError(f"batch width {batch.shape} != row width {model.row_width}")
    if model.signatures is not None and len(model.signatures):
        sig = np.broadcast_to(model.signatures.astype(dtype), (batch.shape[0], len(model.signatures)))
        enc_in = np.concatenate([batch, sig], axis=1)
    else:
        enc_in = batch
    enc_out = model.encoder.forward(enc_in, mode="train")
    latent = model.config.latent
    mu = enc_out[:, :latent]
    sigma = T.exp(enc_out[:, latent:] * 0.5)
    eps = rng.standard_normal(mu.data.shape).astype(dtype)
    z = mu + sigma * Tensor(eps)
    heads, logits = decoder_heads(model.decoder.forward(z, mode="train"), model.transformer)
    return mu, sigma, heads, logits, z


def elbo_loss(
    model: VaeModel,
    heads: Tensor,
    logits: list[Tensor],
    target: np.ndarray,
    mu: Tensor,
    sigma: Tensor,
) -> Tensor:
    """Reconstruction + KL, averaged over the batch.

    Numeric term: Gaussian NLL under N(alpha_hat, delta_i) for tvae, squared
    error for stvae/stvaem.  Mode indicators and categorical blocks use
    cross entropy against the target one-hots, computed from `logits`, the
    pre-softmax blocks in `transformer.blocks` order, for stability.
    """
    target = np.asarray(target, dtype=heads.data.dtype)
    batch = target.shape[0]
    recon_terms: list[Tensor] = []
    alphas = model.transformer.alphas
    for j, ((start, stop), block_logits) in enumerate(zip(model.transformer.blocks, logits)):
        if j < len(alphas):  # a mode indicator: its column's alpha comes first
            diff = heads[:, alphas[j]] - Tensor(target[:, alphas[j]])
            if model.delta is not None:  # tvae
                d = T.maximum_const(model.delta[j : j + 1], DELTA_FLOOR)
                nll = T.log(d) + float(0.5 * np.log(2.0 * np.pi)) + (diff * diff) * (T.pow_(d, -2.0) * 0.5)
                recon_terms.append(T.sum_(nll))
            else:
                recon_terms.append(T.sum_(diff * diff))
        classes = target[:, start:stop].argmax(axis=1)
        recon_terms.append(T.sum_(cross_entropy_logits(block_logits, classes)))
    recon = recon_terms[0]
    for t in recon_terms[1:]:
        recon = recon + t
    kl = T.sum_(kl_std_normal(mu, sigma))
    return (recon * model.config.recon_weight + kl) * (1.0 / batch)


def vae_train_batch(model: VaeModel, batch: np.ndarray, rng: np.random.Generator, opt: Adam) -> float:
    """One guarded forward and backward of the ELBO, then one update."""

    def step():
        mu, sigma, heads, logits, _ = vae_forward(model, batch, rng)
        loss = elbo_loss(model, heads, logits, batch, mu, sigma)
        opt.zero_grad()
        loss.backward()
        return (loss,)

    (loss,) = T.guarded_step(f"the {model.variant} step", step, opt.params)
    opt.step()
    model.clamp_delta()
    return float(loss.data)


def vae_val_loss(model: VaeModel, batch: np.ndarray, rng: np.random.Generator) -> float:
    def step():
        mu, sigma, heads, logits, _ = vae_forward(model, batch, rng)
        return (elbo_loss(model, heads, logits, batch, mu, sigma),)

    with T.no_grad():  # nothing backpropagates a validation loss
        (loss,) = T.guarded_step(f"the {model.variant} validation loss", step)
    return float(loss.data)


def vae_sample(model: VaeModel, n: int, rng: np.random.Generator) -> Table:
    """z ~ N(0, I) through the decoder; blocks decode by argmax."""

    def draw(count: int) -> np.ndarray:
        z = rng.standard_normal((count, model.config.latent)).astype(np.float32)
        with T.no_grad():
            (heads,) = T.guarded_step(
                f"the {model.variant} sampling draw",
                lambda: decoder_heads(model.decoder.forward(z, mode="eval"), model.transformer)[:1],
            )
        return heads.data

    return decode_batches(model.transformer, n, model.config.batch, draw)
