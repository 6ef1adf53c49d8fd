"""End to end: training moves rank from a thin layer to a rich one.

Two adapted 16x16 layers start with 7 ranks each. The teacher behind the
data needs rank 12 at the first layer but only rank 2 at the second, and
nothing tells the trainer that except the spectra its adapters develop.
Bidirectional allocation reads the spectral entropy every 25 steps and
moves one rank per firing from the flatter-looking loser to the winner.

The run finishes in a few seconds; then the trace is replayed into the
rank heatmap the export-heatmap subcommand produces.

CLI equivalent: `rankflex train config.json` with the same fields, then
`rankflex export-heatmap runs/<name>/trace.jsonl`.
"""

import numpy as np

from rankflex.allocator import BudgetSchedule
from rankflex.importance import MetricKind
from rankflex.model import AdapterSpec, LayerSpec
from rankflex.optim import OptimizerConfig
from rankflex.tasks import SyntheticTask
from rankflex.trace import heatmap_csv_lines
from rankflex.training import TrainConfig, run_training

config = TrainConfig(
    name="reallocation-demo",
    seed=1,
    layers=(
        LayerSpec("linear", 16, 16, adapter=AdapterSpec("rich", 7, 14, 16.0)),
        LayerSpec("tanh"),
        LayerSpec("linear", 16, 16, adapter=AdapterSpec("thin", 7, 14, 16.0)),
    ),
    loss="mse",
    task=SyntheticTask(kind="low_rank_teacher", input_dim=16,
                       sample_count=48, noise_std=0.1,
                       teacher_ranks=(12, 2)),
    optimizer=OptimizerConfig(lr=1e-2),
    schedule=BudgetSchedule(b0=1, t_warmup=400, t_final=100,
                            total_steps=3000, delta_t=25),
    metric=MetricKind("spectral_entropy"),
    mode="bidirectional",
    batch_size=16,
)

print("teacher ranks: rich layer 12, thin layer 2; both adapters start at 7")
result = run_training(config)

print(f"\ntrained {config.schedule.total_steps} steps, "
      f"final batch loss {result.final_loss:.5f}")
print(f"{len(result.events)} allocation events:")
for event in result.events:
    print(f"  t={event.step:4d}  {event.action:6s} {event.adapter_id:5s} "
          f"rank {event.rank_before:2d} -> {event.rank_after:2d} "
          f"(score {event.score:.4f})")

ranks = {a.id: a.rank for a in result.model.adapters()}
print(f"\nfinal ranks: rich={ranks['rich']}, thin={ranks['thin']}")

print("\nrank heatmap (adapter x step, as export-heatmap renders it):")
for line in heatmap_csv_lines(result.header, result.events):
    print("  " + line)

lam = {a.id: np.sort(np.abs(a.lam))[::-1] for a in result.model.adapters()}
print("\nfinal |lam| spectra, largest first:")
for name, values in lam.items():
    print(f"  {name}: " + ", ".join(f"{v:.3f}" for v in values))
