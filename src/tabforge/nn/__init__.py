from tabforge.nn.tensor import Tensor, concat, no_grad
from tabforge.nn.layers import (
    BatchNorm,
    ConcatSkip,
    Dense,
    Dropout,
    LeakyReLU,
    Net,
    ReLU,
)
from tabforge.nn.functional import cross_entropy_logits, gumbel_softmax, kl_std_normal
from tabforge.nn.optim import Adam

__all__ = [
    "Adam",
    "BatchNorm",
    "ConcatSkip",
    "Dense",
    "Dropout",
    "LeakyReLU",
    "Net",
    "ReLU",
    "Tensor",
    "concat",
    "cross_entropy_logits",
    "gumbel_softmax",
    "kl_std_normal",
    "no_grad",
]
