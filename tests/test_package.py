import pmleak


def test_star_import_exports_every_public_name():
    namespace = {}
    exec("from pmleak import *", namespace)
    for name in pmleak.__all__:
        assert hasattr(pmleak, name), name
        assert namespace[name] is getattr(pmleak, name)
