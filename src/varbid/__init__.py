"""varbid: reactive power market simulation and batch Q-learning bidding.

A numpy library of seven modules: a small neural-network engine (``nn``),
a prioritized replay buffer (``replay``), the hourly market environment
(``market``), an LSTM requirement forecaster (``forecast``), the fitted-Q
bidding agent (``agent``), the experiment harness (``harness``) and its
command line (``cli``).
"""

from .agent import (BiddingTask, EpisodeStats, N_ACTIONS, STATE_DIM, TrainConfig,
                    TrainResult, action_decode, compute_targets, encode_state,
                    greedy_episode, q_values, select_action, td_error, train, warmup)
from .forecast import (Forecaster, baseline_predict, holdout_mse, load_forecaster,
                       save_forecaster, train_forecaster)
from .harness import (ConfigError, ExperimentConfig, build_config, emit_trace,
                      parse_config_file, run_experiment, run_matrix, sweep)
from .market import (Bid, DEFAULT_GENCOS, DemandConfig, DemandSeries, GencoParams,
                     InfeasibleDemand, MarketOutcome, ReactiveMarketEnv, clear_market,
                     clear_market_batch, demand_profile, load_gencos, profit,
                     simulate_total_quantity)
from .nn import (Adam, Lstm, Mlp, NumericError, ShapeError, grad_check, load_network,
                 save_network, soft_update)
from .replay import ReplayBuffer

__version__ = "0.1.0"
