"""The committed descendant-reach bound dominates a fresh derivation.

`measures.CELL_REACH_RADS` pads each res's top-down tiling test; a bound
that fell short would let a straddling cell pass as wholly inside or
outside. This re-derives it with `tools/derive_cell_reach.py` on a seeded
sample other than the committed one (all 12 pentagons included at every
res) and checks that the table is at least the sampled reach.
"""

import importlib.util
from pathlib import Path

import numpy as np

from h3ray.kernels import bits, measures
from h3ray.kernels.constants import HEX_EDGE_RADS

TOOL = Path(__file__).resolve().parent.parent / "tools" / \
    "derive_cell_reach.py"


def _tool():
    spec = importlib.util.spec_from_file_location("derive_cell_reach", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sample_includes_every_pentagon():
    tool = _tool()
    for res in (0, 5, 15):
        cells = tool.sample_cells(res, 16, seed=7)
        assert bits.is_pentagon(cells).sum() == 12


def test_committed_reach_dominates_rederived():
    direct, bound = _tool().derive(points=48, depth=2, seed=7)
    table = measures.CELL_REACH_RADS
    assert table.shape == (16,)
    assert (table >= direct).all(), np.flatnonzero(table < direct)
    assert (table >= bound).all(), np.flatnonzero(table < bound)
    # The bound stays tight: about 1.26 average edges at every res.
    assert (table < 1.5 * HEX_EDGE_RADS).all()
