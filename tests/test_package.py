import types

import lclab

MODULES = ("dist", "errors", "mc", "quadrature", "shape", "specfun", "transform", "verify")


def test_import_binds_the_modules_and_no_module_member():
    public = {name: obj for name, obj in vars(lclab).items() if not name.startswith("_")}
    assert set(MODULES) <= public.keys()
    # lclab.cli may be bound too, once something imported it
    for name, obj in public.items():
        assert isinstance(obj, types.ModuleType) and obj.__name__ == f"lclab.{name}", name
    assert "__all__" not in vars(lclab) and "__version__" not in vars(lclab)
