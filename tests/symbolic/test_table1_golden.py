"""Golden Table 1 numbers for the symbolic analyzer.

States and BDD peaks are EXPERIMENTS.md's Table 1 ("full" and "BDD
peak" columns); iteration counts are the breadth-first depths the
analyzer has always reported.  The peak counts live nodes of the
transition relations, the reached set and the frontier, so any change to
image computation that alters a frontier, or to the relation encoding,
shows up here.
"""

import pytest

from repro.models import asat, nsdp, over, rw
from repro.symbolic import reach

BUILDERS = {"NSDP": nsdp, "ASAT": asat, "OVER": over, "RW": rw}

#: (problem, size) -> (num_states, peak_nodes, iterations)
GOLDEN = {
    ("NSDP", 2): (17, 500, 5),
    ("NSDP", 4): (341, 2019, 11),
    ("NSDP", 6): (6344, 4761, 17),
    ("NSDP", 8): (117485, 8681, 23),
    ("ASAT", 2): (36, 751, 11),
    ("ASAT", 4): (768, 3737, 18),
    ("OVER", 2): (16, 621, 8),
    ("OVER", 3): (62, 1366, 14),
    ("OVER", 4): (256, 2661, 20),
    ("OVER", 5): (1022, 4465, 26),
    ("RW", 6): (70, 972, 7),
    ("RW", 9): (521, 2848, 10),
    ("RW", 12): (4108, 8619, 13),
}


@pytest.mark.parametrize("problem,size", sorted(GOLDEN))
def test_table1_symbolic_row(problem, size):
    result = reach(BUILDERS[problem](size))
    assert (
        result.num_states,
        result.peak_nodes,
        result.iterations,
    ) == GOLDEN[(problem, size)]
