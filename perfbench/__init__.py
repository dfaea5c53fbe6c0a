"""End-to-end and per-layer benchmark of the jbv command line pipelines.

`python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
runs one workload; see perfbench/README.md.
"""
