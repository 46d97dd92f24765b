"""Public-API snapshot: ``repro.algorithms.__all__``,
``repro.models.__all__`` and both registries' declared capabilities
must match the checked-in snapshot.

Changing the public surface is allowed — but it has to be deliberate:
regenerate ``tests/data/api_surface.json`` in the same commit and the
diff will show exactly what was added, removed or re-declared.
"""

import json
from pathlib import Path

import repro.algorithms as alg
import repro.models as models
from repro.algorithms.api import KINDS, GRID_FAMILIES, REGISTRY
from repro.models.api import MODEL_KINDS, MODEL_REGISTRY
from repro.models.machines import MACHINES

SNAPSHOT = Path(__file__).parent / "data" / "api_surface.json"


def _current_surface() -> dict:
    return {
        "all": list(alg.__all__),
        "registry": {
            name: {
                "kind": info.kind,
                "grid_family": info.grid_family,
                "dtypes": list(info.dtypes),
                "block_param": info.block_param,
            }
            for name, info in sorted(REGISTRY.items())
        },
        "models_all": list(models.__all__),
        "model_registry": {
            name: {
                "kind": info.kind,
                "grid_family": info.grid_family,
                "memory_sensitive": info.memory_sensitive,
            }
            for name, info in sorted(MODEL_REGISTRY.items())
        },
        "machines": sorted(MACHINES),
    }


def test_public_surface_matches_snapshot():
    snap = json.loads(SNAPSHOT.read_text())
    current = _current_surface()
    assert current["all"] == snap["all"], (
        "repro.algorithms.__all__ changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["registry"] == snap["registry"], (
        "registry capabilities changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["models_all"] == snap["models_all"], (
        "repro.models.__all__ changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["model_registry"] == snap["model_registry"], (
        "model registry capabilities changed; if intentional, "
        "regenerate tests/data/api_surface.json"
    )
    assert current["machines"] == snap["machines"], (
        "machine presets changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )


def test_all_is_sorted_and_importable():
    assert list(alg.__all__) == sorted(alg.__all__)
    for name in alg.__all__:
        assert getattr(alg, name, None) is not None, name


def test_models_all_is_sorted_and_importable():
    assert list(models.__all__) == sorted(models.__all__)
    for name in models.__all__:
        assert getattr(models, name, None) is not None, name


def test_model_registry_entries_are_well_formed():
    for name, info in MODEL_REGISTRY.items():
        assert info.name == name
        assert info.kind in MODEL_KINDS
        assert callable(info.total_bytes)
        assert info.description


def test_registry_entries_are_well_formed():
    for name, info in REGISTRY.items():
        assert info.name == name
        assert info.kind in KINDS
        assert info.grid_family in GRID_FAMILIES
        assert info.dtypes
        assert callable(info.func)
        assert info.description

