"""Diffusion with uncertain seeds and edge strengths: simulation, adaptive
seed-selection strategies, Monte Carlo estimation, and exact desk-scale
oracles."""

__version__ = "0.1.0"

from .model import (DicNetwork, PropagationDistribution, fixed_distribution,
                    mean_propagation, quantize_exponential,
                    uniform_discrete_distribution, validate_network)
from .realization import (FullRealization, PartialRealization, log_probability,
                          sample_full)
from .diffusion import (EMPTY_COMMAND, DiffusionState, InvalidCommand,
                        PolicyRun, run_policy, run_to_quiescence, spread_count,
                        start, step_round)
from .strategies import (AGreedyPolicy, RandomPolicy, StaticSeedListPolicy,
                         h_greedy_prune, observably_quiescent, sample_worlds,
                         static_greedy_select, world_gain)
from .estimator import (Estimate, ReplicationResult, estimate_policy_spread,
                        half_width, hoeffding_samples, run_replications,
                        substream)
from .oracle import (AuxiliaryGraph, EnumerationGuard, ExactGainPolicy,
                     build_auxiliary,
                     check_properties, enumerate_realizations,
                     enumerate_schedules, exact_marginal_gain,
                     exact_policy_value, greedy_adaptive_value,
                     optimal_adaptive_value, realization_count)
from .data import (PresetSpec, SchemaError, generate_power_law, load_network,
                   parse_preset, save_network)
from .fixtures import (chain_network, fixture_g1, star_network,
                       two_node_fixture)
