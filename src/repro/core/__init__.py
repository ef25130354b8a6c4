"""The paper's core contributions.

* :mod:`repro.core.cycle_space_scheme` — FT connectivity labels via
  cycle space sampling (Section 3.1, Theorem 3.6).
* :mod:`repro.core.sketch_scheme` — FT connectivity labels via graph
  sketches (Section 3.2, Theorem 3.7), with succinct path output
  (Lemma 3.17).
* :mod:`repro.core.component_tree` — component-tree identification from
  ancestry labels (Claim 3.14).
* :mod:`repro.core.distance_labels` — FT approximate distance labels
  (Section 4, Theorem 1.4).
* :mod:`repro.core.api` — the user-facing facade.
"""

from importlib import import_module

#: exported name -> the module defining it, imported on first use
#: (PEP 562): ``repro.core._batch`` and friends load without the schemes.
_EXPORTS = {
    "CycleSpaceConnectivityScheme": "repro.core.cycle_space_scheme",
    "SketchConnectivityScheme": "repro.core.sketch_scheme",
    "ConnectivityPartition": "repro.core.sketch_scheme",
    "ForestConnectivityScheme": "repro.core.forest_scheme",
    "ComponentForest": "repro.core.component_tree",
    "PathSegment": "repro.core.path_description",
    "SuccinctPath": "repro.core.path_description",
    "DistanceLabelScheme": "repro.core.distance_labels",
    "FaultTolerantConnectivity": "repro.core.api",
    "FaultTolerantDistance": "repro.core.api",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
