"""Host-speed probe: a fixed pure-Python workload, run as a fresh process
between benchmark jobs.

It hashes tuples and fills a dict and a set, the same kind of work treeorder
does, and imports nothing.  Its wall time tracks how fast the host runs
Python at that moment; run.py divides each job's wall time by the mean of the
probes just before and just after it.
"""

ITERATIONS = 60000


def probe() -> int:
    table: dict = {}
    for i in range(ITERATIONS):
        key = (i % 997, i // 997, "arc")
        table[key] = table.get(key, 0) + i
    seen = set()
    for a, b, _ in table:
        seen.add((b, a))
    return len(seen)


if __name__ == "__main__":
    probe()
