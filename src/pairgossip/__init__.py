"""Gossip dual averaging for decentralized pairwise-objective minimization.

Simulation library for synchronous and asynchronous gossip algorithms that
optimize averages of pairwise losses (AUC surrogates, metric learning) over
communication graphs, with spectral-gap analysis, bias tracking and
centralized baselines.
"""

from .analysis import (TraceRecord, bound_constants, dual_disagreement,
                       write_trace)
from .async_gossip import run_async
from .centralized import (deterministic_step, run_centralized, solve_reference,
                          stochastic_step)
from .datasets import (gen_gaussian_mixture, gen_two_class_gaussians,
                       load_breast_cancer)
from .graphs import (Graph, activation_probabilities, build_topology,
                     complete_graph, cycle_graph, read_edgelist, sample_edge,
                     spectral_gap, tensor_with_complete, watts_strogatz_graph)
from .harness import (RunConfig, compare_baseline, run_experiment, run_many)
from .losses import (Dataset, PairwiseLoss, auc_score, full_gradient,
                     full_objective, loss_lipschitz)
from .regularizers import (Regularizer, StepSchedule, prox_psi, psi_value,
                           smoothing_op, step_gamma)
from .sync_gossip import EngineConfig, SyncRunConfig, run_sync

__version__ = "0.1.0"

__all__ = [
    "Dataset", "EngineConfig", "Graph",
    "PairwiseLoss", "Regularizer", "RunConfig", "StepSchedule",
    "SyncRunConfig", "TraceRecord", "activation_probabilities",
    "auc_score", "bound_constants", "build_topology", "compare_baseline",
    "complete_graph", "cycle_graph", "deterministic_step", "dual_disagreement",
    "full_gradient", "full_objective",
    "gen_gaussian_mixture", "gen_two_class_gaussians",
    "load_breast_cancer", "loss_lipschitz", "prox_psi",
    "psi_value", "read_edgelist", "run_async",
    "run_centralized", "run_experiment", "run_many", "run_sync",
    "sample_edge", "solve_reference", "spectral_gap", "step_gamma",
    "stochastic_step", "tensor_with_complete", "watts_strogatz_graph",
    "write_trace",
]
