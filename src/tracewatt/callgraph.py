"""The name under which the benchmark's tracer wraps the trace check.

``bench/tracer.py`` wraps ``tracewatt.callgraph.validate_trace``; the
call tree itself lives in :mod:`tracewatt.trace`.  No command imports
this module.  ROADMAP item 1, which decouples the benchmark from names
inside the package, deletes it.
"""

from .trace import validate_trace  # noqa: F401  bench/tracer.py wraps it under this module
