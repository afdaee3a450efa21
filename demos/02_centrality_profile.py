"""Anti-centrality on a grown tree: profile, centroids, branch sizes.

psi(v) is the size of the largest component left after deleting v; small
psi means central.  On a tree grown from a star seed the original hub
stays extremely central even after a hundredfold growth, which is the
effect the seed finders exploit.
"""

import numpy as np

from seed_archeology import (
    RngHandle,
    SeedSpec,
    anti_centrality,
    branch_sizes_at,
    build_seed,
    grow,
    scramble,
)


def main() -> None:
    rng = RngHandle(master_seed=2024, stream=2)
    n = 2000
    tree = grow(build_seed(SeedSpec.star(20), rng), n, rng)
    view = scramble(tree, rng)

    profile = anti_centrality(view)
    psi = profile.psi[1:]
    print(f"tree: star seed of 20 grown to n={n}")
    print(f"psi range: min {psi.min()}, median {int(np.median(psi))}, "
          f"max {psi.max()} (a leaf always scores n-1 = {n - 1})")

    centroid = min(profile.centroids)
    print(f"centroids: {sorted(profile.centroids)} "
          f"(at most two can exist, and then they are adjacent)")
    print(f"centroid psi = {psi.min()}, guaranteed <= floor(n/2) = {n // 2}")

    hub = next(s for s in range(1, n + 1)
               if view.arrival_labels_of([s]) == {1})
    print(f"the original hub hides at shape label {hub}; "
          f"psi(hub) = {profile.psi[hub]}")

    print()
    print("ten most central vertices (shape label, psi, arrival label):")
    order = np.argsort(psi, kind="stable")[:10]
    for s in order + 1:
        arrival = next(iter(view.arrival_labels_of([int(s)])))
        tag = " <- seed vertex" if arrival <= 20 else ""
        print(f"  {int(s):5d}  psi={profile.psi[s]:5d}  arrival={arrival}{tag}")

    print()
    sizes = branch_sizes_at(profile, centroid)
    top = sorted(sizes.values(), reverse=True)[:5]
    print(f"deleting the centroid leaves {len(sizes)} branches; the largest "
          f"five have sizes {top}")
    print(f"branch sizes sum to n-1 = {sum(sizes.values())}, and the largest "
          f"equals psi(centroid) = {max(sizes.values())}")


if __name__ == "__main__":
    main()
