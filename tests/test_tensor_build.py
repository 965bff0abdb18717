"""The two-stage tensor build against the direct triple-product build."""
import pytest

from abiwave.symbolic import certify as C
from abiwave.symbolic import tensors

from tensors_reference import build_entries

INTERACTIONS = ([((e1, e2, e3), "evolution") for e1 in (1, -1)
                 for e2 in (1, -1) for e3 in (1, -1)]
                + [((0, e2, e3), "constraint") for e2 in (1, -1)
                   for e3 in (1, -1)])


@pytest.mark.parametrize("eps,which", INTERACTIONS,
                         ids=[C._label(e, w) for e, w in INTERACTIONS])
def test_every_tensor_entry_matches_triple_product_oracle(eps, which):
    T = tensors.build_interaction_tensor(eps, which)
    want = build_entries(eps, which)
    assert T.entries == want

    got = {idx: t for idx, t in T.iter_entries()}
    block = [idx for idx in got if C._in_chaplygin_block(idx, which)]
    assert len(block) == (4 if which == "evolution" else 5) * 4 * 4
    for i, j, k in block:
        assert (tensors.chaplygin_substitute(got[i, j, k])
                == tensors.chaplygin_substitute(want[i][j][k]))
