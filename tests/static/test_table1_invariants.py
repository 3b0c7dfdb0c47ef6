"""Golden structural facts of every Table 1 net.

Pins the P- and T-invariant bases (size, ``capped``, and the exact rays in
order, as a digest) and the structural 1-safety certificate of all 16
Table 1 instances, as computed by the all-pairs Farkas elimination before
its pruning became incremental.  A change to the elimination or to the
certificate that alters any result, or merely the order of the rays,
fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.harness import PROBLEMS
from repro.static import certify_safety, p_invariants, t_invariants


def _digest(value: object) -> str:
    """Short stable fingerprint of a list/tuple/int structure."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# (family, size, #P, #T, P rays digest, T rays digest,
#  distinct covering invariants, covering digest)
GOLDEN = [
    ("NSDP", 2, 4, 8, "f0bf0a75d775bec3", "c3bc6e291dfa0a31", 4, "a8058d94456f1f29"),
    ("NSDP", 4, 8, 16, "341fee5408280187", "f09daea89138754c", 8, "f1104d01167a13a8"),
    ("NSDP", 6, 12, 24, "068dde2998cb09ed", "f86c58705bf1fc37", 12, "8d00a300ee46f36e"),
    ("NSDP", 8, 16, 32, "50a9e9d3be499d36", "dcbca40264087c82", 16, "6a8c91c2d6cc95b3"),
    ("NSDP", 10, 20, 40, "2f87154feff8264f", "b4bdd6c643de9ebd", 20, "d468d1f8a7922699"),
    ("ASAT", 2, 17, 2, "85e4fd6972f86c25", "c766c312d76403db", 8, "b3a0fd63117db1fa"),
    ("ASAT", 4, 126, 4, "3077bdae1247bdc3", "8a715ed0d0e69449", 21, "a4156b04841f8489"),
    ("ASAT", 8, 4730, 8, "4140e24d5d085b94", "ffe202d86267ff41", 45, "6406fba20c5214f5"),
    ("OVER", 2, 20, 2, "0567df09d8f1ed5b", "8372c0ee1415914f", 8, "1e8ad612ea2e3df0"),
    ("OVER", 3, 30, 3, "25c32910ad83932a", "faa1014081a6931a", 12, "83c4132abd676cdd"),
    ("OVER", 4, 40, 4, "f9e0b325c0fd9943", "9f5889399cdcaf15", 16, "77fe0842b7548aae"),
    ("OVER", 5, 50, 5, "e52090296d09344f", "a93282745d2b0123", 20, "5c77e2ba9ca6e559"),
    ("RW", 6, 7, 12, "8f7dac405ec2e808", "8cc61de53f4e0c44", 7, "b21a66b8cea16370"),
    ("RW", 9, 10, 18, "4ffd1ce1e63ebfcb", "984848c099968a53", 10, "9248fbcdf84f215c"),
    ("RW", 12, 13, 24, "d407c73d641d8dcd", "a8d99c3d7c54d87c", 13, "f37a967b2fa0de09"),
    ("RW", 15, 16, 30, "e39c0dca8936503c", "e9b37f56bcb6b38a", 16, "c8f17699e10d585b"),
]


@pytest.mark.parametrize(
    "family, size, num_p, num_t, p_rays, t_rays, distinct, covering",
    GOLDEN,
    ids=[f"{family}({size})" for family, size, *_ in GOLDEN],
)
def test_table1_invariants_and_certificate(
    family, size, num_p, num_t, p_rays, t_rays, distinct, covering
):
    net = PROBLEMS[family](size)
    p_basis = p_invariants(net)
    t_basis = t_invariants(net)
    assert (len(p_basis), p_basis.capped) == (num_p, False)
    assert (len(t_basis), t_basis.capped) == (num_t, False)
    assert _digest([inv.weights for inv in p_basis.invariants]) == p_rays
    assert _digest([inv.weights for inv in t_basis.invariants]) == t_rays

    certificate = certify_safety(net, basis=p_basis)
    assert certificate.certified
    assert certificate.uncovered == ()
    assert not certificate.basis_capped
    # Every place of every Table 1 net is bounded by exactly one token.
    assert certificate.bounds == {p: 1 for p in range(net.num_places)}
    assert len(set(certificate.covering.values())) == distinct
    assert _digest(sorted(certificate.covering.items())) == covering
