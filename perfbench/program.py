"""Find and import the streamformer sources of the checkout this file sits in.

The benchmark measures the code next to it, never an installed copy, so the
package is imported from ``<checkout>/src`` and its location is verified.
"""
import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "streamformer")


class ProgramMissing(Exception):
    """The checkout holds no importable streamformer sources."""


def load():
    """Import streamformer and its modules from the checkout's src/."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise ProgramMissing(f"no streamformer sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sf = importlib.import_module("streamformer")
    where = os.path.dirname(os.path.realpath(sf.__file__))
    if where != os.path.realpath(PACKAGE):
        raise ProgramMissing(f"streamformer was imported from {where}, "
                             f"not from {PACKAGE}")
    for name in ("attention", "evaluation", "logic", "model", "streams",
                 "tensor", "training"):
        importlib.import_module(f"streamformer.{name}")
    return sf
