import importlib
import inspect
import pkgutil
import typing

import normbench


def test_every_annotation_in_the_package_resolves():
    # the modules postpone annotations, so a name they never define shows
    # only when something resolves the hints
    checked = 0
    for info in pkgutil.iter_modules(normbench.__path__):
        module = importlib.import_module(f"normbench.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                targets = [obj, *(f for f in vars(obj).values() if inspect.isfunction(f))]
            elif inspect.isfunction(obj):
                targets = [obj]
            else:
                continue
            for target in targets:
                typing.get_type_hints(target)
                checked += 1
    assert checked > 100
