import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the tests that run qbip in a child process find it here, PYTHONPATH set or not
SRC = str(Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

from qbip import treecore
from qbip.polyalg import RatFun


@pytest.fixture
def p2():
    return treecore.standard_labeling(treecore.Tree([(0, 1)]))


@pytest.fixture
def p4_attach(p2):
    # pair attached at l1: path r1-l1-r2-l2 = 1-0-2-3
    return treecore.attach_p2(p2, 0)


@pytest.fixture
def p4_path():
    # plain path 0-1-2-3 under the canonical labeling
    return treecore.standard_labeling(treecore.Tree([(0, 1), (1, 2), (2, 3)]))


@pytest.fixture
def p6_attach(p4_attach):
    # attach at l2 of the attached P4; the result is the 6-vertex path
    return treecore.attach_p2(p4_attach, p4_attach.l_vertex(1))


@pytest.fixture
def ratfun_inits(monkeypatch):
    """A list that gains one item per RatFun constructed while the test runs."""
    calls = []
    init = RatFun.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(RatFun, "__init__", counted)
    return calls
