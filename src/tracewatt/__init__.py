"""tracewatt: mine API interactions from dynamic call traces, attribute
measured power to methods, and test whether API-utilization shifts track
energy changes across software revisions."""

__version__ = "0.1.0"
