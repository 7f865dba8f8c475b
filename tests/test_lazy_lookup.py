"""A relation set looks each slice up once.

``SchemaIndex.instances_for(sub, r)`` gives a slice's part of the eager box
and its part beyond the box in one walk.  ``RelationSet._materialize``
takes both from one lookup, and a slice that the source probe
(``RelationSet.hold_box``) looked up keeps its part beyond, not yet added,
until its first search, so no run reaches ``instances_for`` twice for one
slice.  ``main`` runs the same check on one command line, for larger runs
than these.
"""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conformal import RelationSet, cli, gsb, parse_presentation, parse_poly
from conformal.envelope import SchemaIndex, comp_window_filter

ROOT = Path(__file__).resolve().parents[1]
HV = str(ROOT / "presentations" / "heisenberg_virasoro.alg")
COMMANDS = [["check", "-f", HV],
            ["check", "-f", HV, "--window", "3", "--relation-multiplier", "1"],
            ["example", "heisenberg-virasoro", "check", "--window", "2"]]


def count_lookups(set_attr=setattr) -> Counter:
    """Wrap ``SchemaIndex.instances_for``; the returned counter counts its
    calls per slice."""
    looked = Counter()
    lookup = SchemaIndex.instances_for

    def counted(index, sub, *args, **kwargs):
        looked[sub] += 1
        return lookup(index, sub, *args, **kwargs)
    set_attr(SchemaIndex, "instances_for", counted)
    return looked


def run(args) -> int:
    """Exit code of one in-process CLI run, its stdout discarded."""
    with redirect_stdout(io.StringIO()):
        return cli.main(args)


@pytest.mark.parametrize("args", COMMANDS,
                         ids=[" ".join(a).replace(str(ROOT) + "/", "")
                              for a in COMMANDS])
def test_no_slice_is_looked_up_twice(args, monkeypatch):
    looked = count_lookups(monkeypatch.setattr)
    assert run(args) == 0
    assert looked
    assert [sub for sub, k in looked.items() if k > 1] == []


def test_a_probed_slice_holds_back_its_part_beyond_the_box():
    # the source probe adds H_1 (0) L_1's box part; its part beyond (k = 2
    # is outside [-1, 1]) joins the set, counted, only at the first search
    pf = parse_presentation(Path(HV).read_text())
    index = SchemaIndex(pf.schemas, pf.sig)
    rset = RelationSet(pf.sig, [], lazy=index, eager_radius=1)
    sources = gsb.composition_sources(rset, comp_window_filter(1))
    beyond = parse_poly("H_1 (0) L_1 + H_-1 (0) L_3 - 2 * H_0 (0) L_2",
                        pf.sig)
    sub = beyond.leading()[:-1]
    assert sub in rset._beyond
    assert beyond not in [r.poly for r in rset.relations()]
    assert beyond not in [r.poly for r in sources]
    assert rset.materialized == 0
    assert rset.has_reduction(beyond.leading())
    held = [r.poly for r in rset.relations()]
    assert held.count(beyond) == 1
    assert sub not in rset._beyond
    assert rset.materialized == 1


def main(args) -> int:
    """Run one command; 0 when it exits 0 and looks no slice up twice."""
    looked = count_lookups()
    code = run(args)
    twice = [sub for sub, k in looked.items() if k > 1]
    for sub in twice[:10]:
        print("looked up twice:", sub, file=sys.stderr)
    return 0 if code == 0 and looked and not twice else 1
