"""Outside-in benchmark of the repro framework (see ``perf/README.md``)."""
