"""The repo benchmark: workloads, independent checks, outside-in tracing."""
