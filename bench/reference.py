"""Fixed CPU work that stands for the host's speed at the moment it runs.

    python3 bench/reference.py

On a shared host the speed of the CPU drifts by tens of percent over tens
of seconds, and every job of a pass slows together.  bench/run.py starts this
program twice in each pass and divides each job's wall time by the mean
wall time of the pass's two reference runs (the ``wall_rel`` metric), which
cancels most of that drift.  The work resembles the package's: an
interpreter start, small-integer loops over a dict, building and sorting a
list of tuples, and a big-integer recurrence.  It must never change, because
``wall_rel`` from two commits is comparable only while the reference is the
same program.
"""


def main() -> int:
    seen: dict[tuple[int, int], object] = {}
    acc = 0
    for i in range(80_000):
        key = (i % 997, i % 1009)
        acc = (acc + seen.get(key, i) * 31 + i) % 1_000_003
        seen[key] = acc
    items = sorted(((i * 7919) % 100_003, i % 13, (i, i + 1)) for i in range(50_000))
    for x, y, pair in items:
        seen[(x, y)] = pair
    a, b = 1, 1
    for n in range(2, 2500):
        a, b = b, b + (n - 1) * a
    return (acc + len(seen) + b) % 1_000_003


if __name__ == "__main__":
    print(main())
