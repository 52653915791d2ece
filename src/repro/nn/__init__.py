"""A from-scratch numpy neural-network substrate.

The paper trains seq2seq-with-attention NMT models (citation [23]) on a
GPU with TensorFlow; this environment has neither, so :mod:`repro.nn`
provides the equivalent building blocks — reverse-mode autodiff,
multi-layer LSTMs, Luong attention, embeddings, dropout and Adam — on
plain numpy.  See DESIGN.md ("Substitutions") for the rationale.

The ``Batched*`` twins of each model-facing module carry a leading
*pair* axis so dozens of independently-seeded pair models advance in
lockstep inside one tensor program (see
:class:`repro.translation.BatchedPairTrainer`).
"""

from . import functional
from .attention import BatchedLuongAttention, LuongAttention
from .gru import GRU, BatchedGRU, BatchedGRUCell, GRUCell
from .layers import BatchedEmbedding, BatchedLinear, Dropout, Embedding, Linear
from .lstm import LSTM, BatchedLSTM, BatchedLSTMCell, LSTMCell, LSTMState
from .module import Module, Parameter
from .optim import SGD, Adam, BatchedAdam, clip_grad_norm, clip_grad_norm_per_pair
from .serialization import load_module, save_module
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Adam",
    "BatchedAdam",
    "BatchedEmbedding",
    "BatchedGRU",
    "BatchedGRUCell",
    "BatchedLSTM",
    "BatchedLSTMCell",
    "BatchedLinear",
    "BatchedLuongAttention",
    "Dropout",
    "Embedding",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "LSTMState",
    "Linear",
    "LuongAttention",
    "Module",
    "Parameter",
    "SGD",
    "Tensor",
    "clip_grad_norm",
    "clip_grad_norm_per_pair",
    "functional",
    "is_grad_enabled",
    "load_module",
    "no_grad",
    "save_module",
]
