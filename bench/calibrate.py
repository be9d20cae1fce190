"""Fixed calibration program: the yardstick for the host's current speed.

    python3 bench/calibrate.py

A pure-Python job of the same kind as the pipeline's inner loops (split
CSV-like text, parse floats, accumulate in dicts, sort, sum), with no
imports from ``tracewatt``, so no change to the package can change its
cost.  The harness runs it in a child process next to every timed command
and divides the command's wall time by its own; on a shared host whose
speed drifts by tens of percent over minutes, that ratio stays put while
the raw wall time does not.

Prints one line, ``CHECK``, which the harness compares.
"""

import math

ROWS = 60000
REPEATS = 5


def job() -> str:
    rows = [f"{i},{(i * 7919) % 10007 / 8.0},{i % 97},name{i % 211}" for i in range(ROWS)]
    totals, values = {}, []
    for line in rows:
        _, value, weight, name = line.split(",")
        x = float(value)
        values.append(x * int(weight))
        totals[name] = totals.get(name, 0.0) + x
    values.sort()
    return f"{len(totals)} {math.fsum(values):.1f} {math.fsum(totals.values()):.1f}"


CHECK = "211 1800911047.8 37523229.8"

if __name__ == "__main__":
    for _ in range(REPEATS):
        result = job()
    print(result)
