"""Independent recomputation of a schedule's energy and CO2e.

The formulas are written out again here from the accounting rules the
README states, with numpy, so the benchmark can check the program's
numbers without calling the code it measures:

* training Wh = sum(wall_time_s * active_power_w) / 3600
* one model exchange keeps the link busy for S * (1/D + 1/U) seconds,
  priced at router power plus the receiving device's idle draw
* grams CO2e = total Wh * grid kg-per-kWh
"""

from __future__ import annotations

import numpy as np

SECONDS_PER_HOUR = 3600.0


def training_wh(wall_time_s, active_power_w) -> float:
    wall = np.asarray(wall_time_s, dtype=float)
    active = np.asarray(active_power_w, dtype=float)
    return float(np.dot(wall, active) / SECONDS_PER_HOUR)


def price_schedule(wall_time_s, active_power_w, idle_power_w, *,
                   model_size_mb: float, download_mbps: float,
                   upload_mbps: float, router_power_w: float,
                   c_rate_kg_per_kwh: float) -> dict[str, float]:
    """Training Wh, communication Wh and grams CO2e of one schedule.

    The three arrays hold one value per participation entry.
    """
    idle = np.asarray(idle_power_w, dtype=float)
    train = training_wh(wall_time_s, active_power_w)
    transfer_s = model_size_mb * (1.0 / download_mbps + 1.0 / upload_mbps)
    comm = float(transfer_s * np.sum(router_power_w + idle) / SECONDS_PER_HOUR)
    return {
        "training_wh": train,
        "communication_wh": comm,
        "co2e_g": (train + comm) * c_rate_kg_per_kwh,
    }


def rel_close(actual: float, expected: float, rel: float = 1e-9) -> bool:
    return abs(actual - expected) <= rel * max(abs(expected), 1e-300)
