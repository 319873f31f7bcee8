"""Multi-parametric direct surrogate: model, scalers, datasets and validation."""

from repro.surrogate.dataset import BatchIterator, OfflineDataset, generate_offline_dataset
from repro.surrogate.model import DirectSurrogate, SurrogateConfig, build_mlp
from repro.surrogate.normalization import MinMaxScaler, SurrogateScalers
from repro.surrogate.validation import ValidationSet, build_validation_set, validation_loss

__all__ = [
    "BatchIterator",
    "OfflineDataset",
    "generate_offline_dataset",
    "DirectSurrogate",
    "SurrogateConfig",
    "build_mlp",
    "MinMaxScaler",
    "SurrogateScalers",
    "ValidationSet",
    "build_validation_set",
    "validation_loss",
]
