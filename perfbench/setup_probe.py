"""Set-up probe: time a fresh import of afkit plus validate_config.

Usage: python3 perfbench/setup_probe.py MODE N

Prints the seconds from just before `import afkit` to just after
`validate_config` returns. Nothing else is imported before the clock
starts, so the figure is what a fresh process pays before its first
instance.
"""

import sys
import time

t0 = time.perf_counter()
import afkit  # noqa: E402
from afkit.harness import RunConfig, validate_config  # noqa: E402

validate_config(RunConfig(mode=sys.argv[1], n=int(sys.argv[2]), trials=3))
print(time.perf_counter() - t0)
