"""Step learning-rate schedules with linear warmup.

The schedule ramps linearly up to the base rate over the warmup iterations,
then holds `num_reductions + 1` plateaus of (almost) equal length, each a
constant `factor` times the previous.  With the defaults (base 0.192, 13
halvings) the final plateau rate is 0.192 / 2^13 = 2.34375e-5.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .netops import check_elements
from .records import ValidationError, _shown, check_count, check_real, write_file

DEFAULT_BASE_LR = 0.192
DEFAULT_REDUCTIONS = 13
DEFAULT_FACTOR = 0.5


@dataclass
class LrSchedule:
    base_lr: float
    warmup_iters: int
    total_iters: int
    num_reductions: int = DEFAULT_REDUCTIONS
    factor: float = DEFAULT_FACTOR
    values: list[float] = field(default_factory=list)

    def plateau_lengths(self) -> list[int]:
        """Lengths of the constant-lr segments after warmup."""
        lengths: list[int] = []
        prev = None
        for v in self.values[self.warmup_iters :]:
            if prev is not None and v == prev:
                lengths[-1] += 1
            else:
                lengths.append(1)
            prev = v
        return lengths


def lr_schedule(
    base_lr: float = DEFAULT_BASE_LR,
    warmup_iters: int = 0,
    total_iters: int = 0,
    num_reductions: int = DEFAULT_REDUCTIONS,
    factor: float = DEFAULT_FACTOR,
) -> LrSchedule:
    """Build the per-iteration learning-rate list.

    After warmup the remaining iterations split into num_reductions + 1
    plateaus whose lengths differ by at most one (longer plateaus first);
    plateau i runs at base_lr * factor**i.
    """
    base_lr = check_real(base_lr, "base_lr", 0.0, open_ends=True)
    factor = check_real(factor, "factor", 0.0, 1.0, open_ends=True)  # downward steps
    warmup_iters = check_count(warmup_iters, "warmup_iters", 0)
    total_iters = check_count(total_iters, "total_iters")
    num_reductions = check_count(num_reductions, "num_reductions", 0)
    if total_iters <= warmup_iters:
        raise ValidationError("total_iters must exceed warmup_iters")
    check_elements(total_iters, "schedule values")
    span = total_iters - warmup_iters
    plateaus = num_reductions + 1
    if span < plateaus:
        raise ValidationError(
            f"{span} post-warmup iterations cannot hold {_shown(plateaus)} plateaus"
        )
    values = [base_lr * (i + 1) / warmup_iters for i in range(warmup_iters)]
    base_len, extra = divmod(span, plateaus)
    for i in range(plateaus):
        length = base_len + (1 if i < extra else 0)
        values.extend([base_lr * factor**i] * length)
    return LrSchedule(
        base_lr=base_lr,
        warmup_iters=warmup_iters,
        total_iters=total_iters,
        num_reductions=num_reductions,
        factor=factor,
        values=values,
    )


def save_schedule(sched: LrSchedule, path: str | Path) -> None:
    obj = {
        "base_lr": sched.base_lr,
        "warmup_iters": sched.warmup_iters,
        "total_iters": sched.total_iters,
        "num_reductions": sched.num_reductions,
        "factor": sched.factor,
        "values": sched.values,
    }
    write_file(path, (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8"))
