"""Time `import gogmagog, gogmagog.cli` in this fresh interpreter.

Started by run.py with ``src`` on the path.  Prints one JSON object:
``ref``, the import time in reference seconds (see refspeed.py), and
``raw``, its wall time with the reference chunks left out.
"""

import json

from refspeed import SpeedMeter


def load() -> None:
    import gogmagog  # noqa: F401
    import gogmagog.cli  # noqa: F401


with SpeedMeter(0.002, "interpreter") as meter:
    meter.timed(load)
print(json.dumps({"ref": meter.ref_times()[0], "raw": meter.raw_times()[0]}))
