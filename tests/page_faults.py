"""Minor page faults per call of the graph and probe pipelines.

Runs `open_mult_graph` on a 400-edge star of 33-node edges and
`probe_pipeline` at 1025 nodes (8 trials), 30 calls each in this interpreter,
and prints one JSON line: the mean `ru_minflt` per call over the last 20 calls
of each loop.  From the repository root:

    PYTHONPATH=src python tests/page_faults.py
"""

import json
import resource

import numpy as np

from openmult import GraphDomain, GraphFunction, GridFunction, IntervalDomain, open_mult_graph, probe_pipeline

CALLS, TAIL = 30, 20


def star(edges=400, nodes=33):
    """f, g, d on a star whose edges run from "c" to "v<i>"."""
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, nodes)
    dom = IntervalDomain(0.0, 1.0, nodes)
    graph = GraphDomain(("c", *(f"v{i}" for i in range(edges))), tuple(("c", f"v{i}", dom) for i in range(edges)))
    f = [(0.8 + 0.1j) * (1 - t + rng.uniform(0.5, 1.2) * t) for _ in range(edges)]
    g = [(0.6 - 0.2j) * (1 - t + rng.uniform(0.5, 1.2) * t) for _ in range(edges)]
    d = [1e-4 * (0.5 - t) + 0j for _ in range(edges)]
    return (GraphFunction(graph, tuple(v)) for v in (f, g, d))


def faults_per_call(call):
    counts = []
    for _ in range(CALLS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return sum(counts[-TAIL:]) / TAIL


def main():
    f, g, d = star()
    dom = IntervalDomain(0.0, 1.0, 1025)
    t = dom.nodes()
    pf, pg = GridFunction(dom, (t - 0.5).astype(complex)), GridFunction(dom, (t - 0.5) * (1 + 1j))
    print(json.dumps({
        "graph": faults_per_call(lambda: open_mult_graph(f, g, d, 0.7)),
        "probe": faults_per_call(lambda: probe_pipeline(pf, pg, 0.7, trials=8, seed=1)),
    }))


if __name__ == "__main__":
    main()
