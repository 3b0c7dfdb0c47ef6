"""Golden Table 1 numbers for the GPO analyzer.

For every Table 1 instance this pins what ``analyze`` reports with the
BDD backend: GPN states and edges (the paper's "GPO States" column), the
verdict, ``|r0|`` (``extras["scenarios"]``), the mean and maximum
scenario-family sizes over the expanded states, the node count of the
``r0`` diagram, and the rendered witness.  None of these depend on BDD
node ids, so a change to how families are computed (the apply kernels,
the ``r0`` construction, the ``t ∈ v`` filter) must leave every row
byte-identical.
"""

import pytest

from repro.gpo import analyze
from repro.gpo.gpn import Gpn
from repro.models import asat, nsdp, over, rw

BUILDERS = {"NSDP": nsdp, "ASAT": asat, "OVER": over, "RW": rw}


def _nsdp_witness(n: int) -> str:
    holding = ", ".join(f"hasR{i}" for i in range(n))
    fired = ",".join(
        [f"takeL{i}" for i in range(n)] + [f"takeR'{i}" for i in range(n)]
    )
    return f"deadlock at {{{holding}}} via {{{fired}}}"


def _over_witness(n: int) -> str:
    asking = ", ".join(
        [f"asking{i}" for i in range(n)] + [f"req{i}" for i in range(n)]
    )
    fired = ",".join(f"ask{i}" for i in range(n))
    return f"deadlock at {{{asking}}} via {{{fired}}}"


#: (problem, size) -> (states, edges, deadlock, |r0|, mean_scenarios,
#: max_scenarios, r0 BDD nodes, witness)
GOLDEN = {
    ("NSDP", 2): (2, 1, True, 56, 48.0, 56, 56, _nsdp_witness(2)),
    ("NSDP", 4): (2, 1, True, 3104, 2976.0, 3104, 160, _nsdp_witness(4)),
    ("NSDP", 6): (2, 1, True, 172928, 170880.0, 172928, 264, _nsdp_witness(6)),
    ("NSDP", 8): (
        2, 1, True, 9634304, 9601536.0, 9634304, 368, _nsdp_witness(8),
    ),
    ("NSDP", 10): (
        2, 1, True, 536754176, 536229888.0, 536754176, 472, _nsdp_witness(10),
    ),
    ("ASAT", 2): (10, 10, False, 4, 2.8, 4, 22, None),
    ("ASAT", 4): (14, 14, False, 64, 34.286, 64, 56, None),
    ("ASAT", 8): (18, 18, False, 16384, 7281.778, 16384, 124, None),
    ("OVER", 2): (2, 1, True, 4, 3.5, 4, 16, _over_witness(2)),
    ("OVER", 3): (2, 1, True, 8, 7.5, 8, 24, _over_witness(3)),
    ("OVER", 4): (2, 1, True, 16, 15.5, 16, 32, _over_witness(4)),
    ("OVER", 5): (2, 1, True, 32, 31.5, 32, 40, _over_witness(5)),
    ("RW", 6): (4, 4, False, 84, 48.0, 84, 122, None),
    ("RW", 9): (4, 4, False, 180, 99.0, 180, 194, None),
    ("RW", 12): (4, 4, False, 312, 168.0, 312, 266, None),
    ("RW", 15): (4, 4, False, 480, 255.0, 480, 338, None),
}


def test_witness_helpers_render_the_recorded_strings():
    assert _nsdp_witness(2) == (
        "deadlock at {hasR0, hasR1} via {takeL0,takeL1,takeR'0,takeR'1}"
    )
    assert _over_witness(2) == (
        "deadlock at {asking0, asking1, req0, req1} via {ask0,ask1}"
    )


@pytest.mark.parametrize("problem,size", sorted(GOLDEN))
def test_table1_gpo_row(problem, size):
    net = BUILDERS[problem](size)
    result = analyze(net)
    gpn = Gpn(BUILDERS[problem](size))
    extras = result.extras
    assert (
        result.states,
        result.edges,
        result.deadlock,
        extras["scenarios"],
        extras["mean_scenarios"],
        extras["max_scenarios"],
        gpn.ctx.mgr.count_nodes(gpn.r0.node),
        str(result.witness) if result.witness is not None else None,
    ) == GOLDEN[(problem, size)]
