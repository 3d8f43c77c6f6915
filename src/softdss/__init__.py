"""Soft-computing decision modeling toolkit.

Four learning paradigms over a common tactical-decision dataset: a
Takagi-Sugeno fuzzy network with hybrid learning, a Mamdani fuzzy system
built by Wang-Mendel rule extraction and tuned by gradient descent or a
genetic algorithm, a feed-forward network trained by scaled conjugate
gradient, and CART regression trees -- plus a reproducible benchmark
harness comparing them.
"""

from .anfis import (
    AnfisModel,
    StepSizeController,
    anfis_train,
    forward_batch,
    hybrid_epoch,
    premise_gradient,
    update_step_size,
)
from .bench import BenchConfig, run_bench, train_paradigm
from .cart import (
    PrunedEntry,
    TreeNode,
    count_leaves,
    grow,
    predict_batch,
    prune_sequence,
    select_min_cost,
)
from .errors import DegenerateCoverageError, SingularSystemError, TrainingDivergedError
from .fuzzy import (
    GaussianMF,
    GBellMF,
    LinguisticVariable,
    MamdaniModel,
    MamdaniRule,
    TrapezoidMF,
    TriangleMF,
    grid_partition,
)
from .linalg import RlsState, lse_batch, ridge_solve, rls_init, rls_solve, rls_update
from .mamdani import GaConfig, encode_centers, ga_optimize, gd_tune, wang_mendel
from .mlp import MlpModel, mlp_forward_batch, mlp_gradient, mlp_init, scg_train
from .modelio import LoadedModel, load_model, save_model
from .report import TrainReport
from .tace import Dataset, Sample, anchor_table, generate, load_csv, normalize, save_csv, split

__version__ = "0.1.0"
