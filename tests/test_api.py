import logforge


def test_every_exported_name_imports():
    namespace = {}
    exec("from logforge import *", namespace)
    assert logforge.__all__ and set(logforge.__all__) <= set(namespace)
