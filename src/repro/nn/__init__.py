"""repro.nn — minimal numpy deep-learning library.

From-scratch replacement for the PyTorch subset the Adrias paper uses:
LSTM encoders, dense blocks (Linear + ReLU + BatchNorm + Dropout), MSE
training with Adam, gradient clipping and early stopping.

All layers implement an explicit ``forward``/``backward`` pair (see
:class:`repro.nn.Module`); gradients are exact and covered by numerical
gradient checks in the test suite.
"""

from repro.nn.activations import ReLU
from repro.nn.clipping import clip_grad_norm
from repro.nn.data import DataLoader, StandardScaler, TensorDataset
from repro.nn.gru import GRU, StackedGRU
from repro.nn.linear import Linear
from repro.nn.losses import MSELoss
from repro.nn.metrics import mae, pearson, r2_score
from repro.nn.module import Module, Sequential
from repro.nn.normalization import BatchNorm1d
from repro.nn.optim import Adam
from repro.nn.parameter import Parameter
from repro.nn.recurrent import LSTM, StackedLSTM
from repro.nn.regularization import Dropout
from repro.nn.resilience import (
    CheckpointManager,
    CheckpointWriteError,
    DivergenceError,
    DivergenceGuard,
    FitCheckpointError,
    FitState,
    RecoveryPolicy,
    TrainingDivergedError,
    capture_fit_state,
    restore_fit_state,
)
from repro.nn.serialization import ModelFormatError, load_state, save_state
from repro.nn.training import EarlyStopping, History, NonFiniteLossError, Trainer

__all__ = [
    "Adam",
    "BatchNorm1d",
    "CheckpointManager",
    "CheckpointWriteError",
    "GRU",
    "StackedGRU",
    "DataLoader",
    "DivergenceError",
    "DivergenceGuard",
    "Dropout",
    "EarlyStopping",
    "FitCheckpointError",
    "FitState",
    "History",
    "LSTM",
    "Linear",
    "MSELoss",
    "ModelFormatError",
    "Module",
    "NonFiniteLossError",
    "Parameter",
    "ReLU",
    "RecoveryPolicy",
    "Sequential",
    "StackedLSTM",
    "StandardScaler",
    "TensorDataset",
    "Trainer",
    "TrainingDivergedError",
    "capture_fit_state",
    "clip_grad_norm",
    "load_state",
    "mae",
    "pearson",
    "r2_score",
    "restore_fit_state",
    "save_state",
]
