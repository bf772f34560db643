"""The package root: each public name is listed once, in its module's __all__."""

import qchar
from qchar import affine, identities, qseries, quadform

MODULES = (qseries, quadform, affine, identities)


def test_root_exports_the_module_lists_once():
    names = [name for module in MODULES for name in module.__all__]
    # no name in two modules, so no star import shadows another
    assert len(names) == len(set(names))
    assert sorted(qchar.__all__) == sorted(names + ["__version__"])
    assert len(qchar.__all__) == 42
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qchar, name) is getattr(module, name), name
