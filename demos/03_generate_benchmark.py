"""Benchmark generation: every class, every claim, a reproducible subset.

Run with:  python demos/03_generate_benchmark.py
"""

import collections
import tempfile
from pathlib import Path

from causaltext import (balanced_generate, generate, read_samples,
                        write_samples)

# The full three-variable universe: 11 equivalence classes crossed with
# every claim template gives 264 labeled rows. The labels skew heavily
# toward No, as they should: most claims fail in at least one member.
samples = list(generate(3))
counts = collections.Counter(s.label for s in samples)
print(f"rows: {len(samples)}, labels: {dict(counts)}")

print("\na Yes row:")
yes = next(s for s in samples if s.label == "Yes")
print(" ", yes.premise)
print("  hypothesis:", yes.hypothesis_text, "->", yes.label)

# A balanced draw for evaluation: equal labels, reproducible under a seed.
# The generator walks a seeded shuffle of the classes and stops once both
# label quotas are full, so it never labels the whole universe.
balanced = balanced_generate([3], per_cell=10, seed=42)
print(f"\nbalanced draw: {len(balanced)} rows,",
      collections.Counter(s.label for s in balanced))

# The same call draws across several variable counts at once.
wide = balanced_generate([3, 4, 5], per_cell=5, seed=7)
print("across variable counts:",
      collections.Counter((s.n_vars, s.label) for s in wide))

# The same draw in story style: themed variable names, the same classes,
# claims and labels.
stories = balanced_generate([3], per_cell=10, seed=42, style="story",
                            theme="marketing")
story = stories[0]
print("\nstory style:")
print(" ", story.premise)
print("  hypothesis:", story.hypothesis_text, "->", story.label)
print("  labels as in the symbolic draw:",
      [s.label for s in stories] == [s.label for s in balanced])

# Rows persist as line-delimited records and read back losslessly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "benchmark.jsonl"
    write_samples(path, balanced)
    again = read_samples(path)
    print(f"\npersisted and reloaded {len(again)} rows;",
          "relations identical:", all(a.relations == b.relations
                                      for a, b in zip(balanced, again)))
