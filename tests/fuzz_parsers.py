"""Longer parity fuzzing of the bulk parsers against the per-line reference.

For each of a few fixed seeds, the script builds a random trace and a
random power profile, writes them, and feeds ``parse_trace`` and
``parse_power`` the two mutation streams of their
``test_fuzz_mutations_never_crash`` tests (byte mutants, then
field-preserving mutants): 20,000 mutants per parser in all.  Each mutant
is parsed with the name caches emptied and again with them warm, and both
must give the value that ``tests/reference_parsers.py`` gives, or the
same error class, message and line.  The script prints the first few
differences and exits 1 if there is any.

It has no ``test_`` prefix, so pytest does not collect it and tier-1 keeps
its short fuzz tests.  It imports the mutators from the test modules, so
pytest must be installed.  Run it with

    PYTHONPATH=src python tests/fuzz_parsers.py
"""

import random
import sys

from conftest import random_trace
from reference_parsers import parity_difference, reference_parse_power, reference_parse_trace
from test_energy import _power_mutants, _random_profile
from test_trace import _trace_mutants
from tracewatt.energy import parse_power
from tracewatt.trace import parse_trace
from writers import write_power, write_trace

SEEDS = (101, 202, 303, 404)
MUTANTS_PER_STREAM = 2_500  # x 2 streams x 4 seeds = 20,000 per parser
SHOWN = 5


def main() -> int:
    differences = []
    checked = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        trace_text = write_trace(random_trace(rng, max_events_per_thread=30, n_threads=2))
        power_text = write_power(_random_profile(rng, n_max=40))
        for parse, reference, mutants in (
            (parse_trace, reference_parse_trace, _trace_mutants(rng, trace_text, MUTANTS_PER_STREAM)),
            (parse_power, reference_parse_power, _power_mutants(rng, power_text, MUTANTS_PER_STREAM)),
        ):
            for data in mutants:
                checked += 1
                difference = parity_difference(parse, reference, data)
                if difference is not None:
                    differences.append(f"seed {seed}, {parse.__name__}: {difference}")
    for difference in differences[:SHOWN]:
        print(difference)
    print(f"{checked} mutants checked, {len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
