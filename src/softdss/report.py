"""Training report type shared by every trainable paradigm."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field


@dataclass
class TrainReport:
    """Per-epoch error curve plus final metrics for one training run."""

    rmse_per_epoch: list[float]
    final_train_rmse: float
    final_test_rmse: float | None
    wall_time: float
    seed: int
    extras: dict = field(default_factory=dict)


def write_curve_csv(path, values, header=("epoch", "train_rmse")) -> None:
    """Emit an (index, value) curve; index counts from 1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, v in enumerate(values, start=1):
            writer.writerow([i, repr(float(v))])
