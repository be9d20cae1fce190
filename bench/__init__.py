"""tracewatt benchmark harness; see bench/README.md."""
