"""perfbench: the repository's wall-clock benchmark.

``python3 perfbench/run.py --workload NAME`` measures one workload;
``compare.py`` sets two result files side by side.  ``BENCHMARK.json``
at the checkout root names the workloads and metrics; ``README.md`` in
this directory says what each metric means on each workload and which
end-to-end metric each per-layer metric is expected to move.
"""
