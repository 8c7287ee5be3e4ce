"""Repository benchmark: closure sweeps and a closed-loop serve workload.

Run ``python3 tcbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``run.py``'s docstring describes the output.
"""
