"""Transition rates and dissipative dynamics of a two-photon-pumped Kerr
oscillator refrigerated by a voltage-biased normal-metal tunnel junction."""

from .constants import H_UEV_PER_GHZ, KB_HZ_PER_K, R_K_OHM, TWO_PI
from .dynamics import (Generator, Trajectory, assemble_generator, evolve,
                       husimi_q, initial_state, liouvillian, steady_state)
from .errors import (CatStateError, ChargeDistributionError, ConfigError,
                     EvolveError, MatchingError, QuadratureError,
                     SpectrumError, SteadyStateError)
from .junction import (ChargeDistribution, PatIntegrator, charge_distribution,
                       dynes_dos, fermi, pat_integral)
from .oracles import OracleReport, run_oracle_suite
from .params import SystemParams, load_config
from .rates import (MatchSets, RateTable, bitflip_rates, displacement_bands,
                    eta_table, hermiticity_residual, match_sets,
                    qcr_bitflip_rate, rate_table, trace_residual,
                    transition_rate)
from .spectrum import (CatStates, FockOperators, Spectrum,
                       build_fock_operators, cat_states, coherent_state,
                       diagonalize_kpo, kpo_hamiltonian)
from .workflows import (DEFAULT_TRANSITIONS, DynamicsResult, HusimiConfig,
                        HusimiResult, Schedule, SweepResult, bitflip_sweep,
                        dynamics_run, husimi_run, pq_run, rates_sweep,
                        steady_sweep)

from ._blas import cap_threads
from ._heap import keep_freed_memory

# numpy's bundled OpenBLAS is loaded by now: one thread, and the malloc
# setting, for the whole process.
cap_threads()
keep_freed_memory()

__version__ = "0.1.0"

__all__ = [
    "H_UEV_PER_GHZ", "KB_HZ_PER_K", "R_K_OHM", "TWO_PI",
    "Generator", "Trajectory", "assemble_generator", "evolve", "husimi_q",
    "initial_state", "liouvillian", "steady_state",
    "CatStateError", "ChargeDistributionError", "ConfigError", "EvolveError",
    "MatchingError", "QuadratureError", "SpectrumError", "SteadyStateError",
    "ChargeDistribution", "PatIntegrator", "charge_distribution", "dynes_dos",
    "fermi", "pat_integral",
    "OracleReport", "run_oracle_suite",
    "SystemParams", "load_config",
    "MatchSets", "RateTable", "bitflip_rates", "displacement_bands",
    "eta_table",
    "hermiticity_residual", "match_sets", "qcr_bitflip_rate", "rate_table",
    "trace_residual", "transition_rate",
    "CatStates", "FockOperators", "Spectrum", "build_fock_operators",
    "cat_states", "coherent_state", "diagonalize_kpo", "kpo_hamiltonian",
    "DEFAULT_TRANSITIONS", "DynamicsResult", "HusimiConfig", "HusimiResult",
    "Schedule", "SweepResult", "bitflip_sweep", "dynamics_run", "husimi_run",
    "pq_run", "rates_sweep", "steady_sweep",
]
