"""The repository's benchmark: workloads, tracing and checks (see ``run.py``)."""
