from tabforge.nn.tensor import Tensor, concat, no_grad
from tabforge.nn.layers import (
    BatchNorm,
    ConcatSkip,
    Dense,
    Dropout,
    GumbelSoftmax,
    LeakyReLU,
    Net,
    ReLU,
    Softmax,
    Tanh,
)
from tabforge.nn.functional import cross_entropy_logits, kl_std_normal
from tabforge.nn.optim import Adam

__all__ = [
    "Adam",
    "BatchNorm",
    "ConcatSkip",
    "Dense",
    "Dropout",
    "GumbelSoftmax",
    "LeakyReLU",
    "Net",
    "ReLU",
    "Softmax",
    "Tanh",
    "Tensor",
    "concat",
    "cross_entropy_logits",
    "kl_std_normal",
    "no_grad",
]
