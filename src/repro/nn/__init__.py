"""`repro.nn` — a from-scratch neural-network substrate on numpy.

The paper's reference implementation relied on PyTorch/MindSpore; this
package provides the equivalent machinery (reverse-mode autograd, layers,
recurrent cells, attention, optimizers and losses) so the reproduction is
fully self-contained.
"""

from .tensor import Tensor, concat, gradient_check
from .module import Embedding, LayerNorm, Linear, Module, Parameter, no_grad
from .fused import (fused_bce_with_logits, fused_gru_sequence,
                    fused_lstm_sequence, fused_masked_softmax)
from .rnn import GRUCell, LSTMCell, RecurrentLayer
from .attention import (AdditiveAttention, BilinearAttention,
                        MultiHeadSelfAttention, TransformerBlock)
from .optim import SGD, Adagrad, Adam, Optimizer, make_optimizer
from . import functional
from . import init
from . import losses

__all__ = [
    "Tensor", "concat", "gradient_check",
    "Module", "Parameter", "Linear", "Embedding", "LayerNorm", "no_grad",
    "fused_bce_with_logits", "fused_gru_sequence", "fused_lstm_sequence",
    "fused_masked_softmax",
    "GRUCell", "LSTMCell", "RecurrentLayer",
    "BilinearAttention", "AdditiveAttention", "MultiHeadSelfAttention",
    "TransformerBlock",
    "Optimizer", "SGD", "Adam", "Adagrad", "make_optimizer",
    "functional", "init", "losses",
]
