"""Training report type, the RMSE shared by every trainable paradigm, and the one CSV writer."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TrainReport:
    """Per-epoch error curve plus final metrics for one training run."""

    rmse_per_epoch: list[float]
    final_train_rmse: float
    final_test_rmse: float | None
    wall_time: float
    seed: int
    extras: dict = field(default_factory=dict)


def rmse(residuals) -> float:
    """Root mean squared error from the residuals (prediction minus target)."""
    return float(np.sqrt(np.mean(residuals**2)))


def write_csv(path, header, rows) -> None:
    """One CSV file: the header, then the rows, in csv's default dialect (CRLF line ends)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
