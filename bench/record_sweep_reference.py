"""Record the sweep workload's error_lq values into sweep_reference.json.

The sweep workload checks every error_lq against these values, so record
them only from a commit whose numerics are the reference:

    python3 bench/record_sweep_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ridgekit as rk  # noqa: E402
from workloads import (SWEEP_CONFIG_SEEDS, SWEEP_CONFIGS, SWEEP_REFERENCE,  # noqa: E402
                       sweep_config)


def main():
    reference = {}
    for size, configs in SWEEP_CONFIGS.items():
        for label in configs:
            for config_seed in range(SWEEP_CONFIG_SEEDS):
                report = rk.rate_sweep(sweep_config(size, label, config_seed))
                errors = [row["error_lq"] for row in report.rows]
                reference.setdefault(size, {}).setdefault(label, {})[str(config_seed)] = errors
                print(size, label, config_seed, errors, flush=True)
    with open(SWEEP_REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
