"""Drug-target affinity regression from SMILES and protein sequences."""

from .compounds import atom_features, ecfp, tanimoto
from .domain import check_ad, fit_ad
from .metrics import aggregate, concordance_index, r2, rmse
from .model import FeatureStore, Model, ModelConfig
from .proteins import psc
from .smiles import MoleculeTable, parse_smiles
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "parse_smiles", "MoleculeTable",
    "ecfp", "tanimoto", "atom_features",
    "psc",
    "rmse", "r2", "concordance_index", "aggregate",
    "fit_ad", "check_ad",
    "ModelConfig", "Model", "FeatureStore",
    "TrainConfig", "train",
    "__version__",
]
