"""trajrl: trajectory-matched semi-supervised RL on a desk-scale simulator.

A toy softmax policy answers clustered synthetic questions; GRPO-style
group updates train it from verifiable rewards on labeled questions and
majority-vote pseudo-labels on unlabeled ones.  Per-question pass-rate
trajectories, matched by cosine similarity against a reliable reference
set, decide which pseudo-labels are trustworthy enough to train on.
"""

from .core import (
    ConfigError,
    Dataset,
    DivergenceError,
    Question,
    RolloutGroup,
    TrainerConfig,
    rng_stream,
)
from .diagnostics import BoundConfig, BoundReport, hoeffding_term, tc_risk
from .grpo import (
    AdvantageVector,
    PolicyParams,
    block_ratios,
    group_advantages,
    grpo_loss_and_grad,
    preference_block,
    step_probs,
)
from .harness import (
    EpochMetrics,
    RunResult,
    greedy_accuracy,
    offline_select,
    run,
    sweep,
    train_epoch,
)
from .logio import LogParseError, PassRateLog, PassRateRecord, read_passrates, write_passrates
from .rewards import RewardVector, hybrid_reward, majority_vote, verify_block
from .sim import (
    BiasVerificationError,
    Policy,
    WorldConfig,
    default_v1,
    generate_world,
    greedy_answer,
    init_policy,
    rollout_group,
)
from .trajectory import (
    ReliableDatabase,
    SelectionMask,
    TrajectoryStore,
    pass_rate,
    reliable_average,
    select,
    tcs,
    tcs_max,
    tcs_max_rows,
    update_db,
)

__version__ = "0.1.0"
